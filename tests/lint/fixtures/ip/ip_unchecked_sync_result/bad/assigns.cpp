// hcs-lint-path: src/clocksync/assigns.cpp
// Bad fixture for ip-unchecked-sync-result, file 3/3: a result assigned to a
// local declared earlier as SyncResult or auto is a binding too, and its
// .report is never read after the assignment.  Not compiled.

namespace hcs::clocksync {

void caller_assigns_unchecked(simmpi::Comm& comm) {
  SyncResult res;
  res = run_mini_sync(comm);  // hcs-lint-expect: ip-unchecked-sync-result
  install_clock(res.clock);
}

void caller_reassigns_unchecked(simmpi::Comm& comm) {
  auto res = run_mini_sync(comm);
  if (!res.report.clean()) {
    return;
  }
  res = run_mini_sync(comm);  // hcs-lint-expect: ip-unchecked-sync-result
  install_clock(res.clock);
}

}  // namespace hcs::clocksync
