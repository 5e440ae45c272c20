// hcs-lint-path: src/clocksync/callers.cpp
// Good fixture for ip-unchecked-sync-result, file 2/4: the caller binds the
// full result and consults the report before trusting the clock.  Not
// compiled.

namespace hcs::clocksync {

void caller_checks(simmpi::Comm& comm) {
  const SyncResult res = run_mini_sync(comm);
  if (!res.report.clean()) {
    return;
  }
  install_clock(res.clock);
}

}  // namespace hcs::clocksync
