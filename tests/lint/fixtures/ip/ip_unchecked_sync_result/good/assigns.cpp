// hcs-lint-path: src/clocksync/assigns.cpp
// Good fixture for ip-unchecked-sync-result, file 3/4: the result assigned
// to a local declared earlier is checked before its clock is used, and an
// assignment to a member hands the result to another object.  Not compiled.

namespace hcs::clocksync {

void caller_assigns_checked(simmpi::Comm& comm) {
  SyncResult res;
  res = run_mini_sync(comm);
  if (!res.report.clean()) {
    return;
  }
  install_clock(res.clock);
}

void caller_assigns_member(Holder& holder, simmpi::Comm& comm) {
  SyncResult current;  // a local of the member's name, never assigned
  holder.current = run_mini_sync(comm);
  install_clock(holder.current.clock);
}

}  // namespace hcs::clocksync
