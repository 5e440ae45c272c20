// hcs-lint-path: src/clocksync/callers.cpp
// Bad fixture for ip-unchecked-sync-result, file 2/3: the three ways to drop
// the SyncReport — discard the value, read .clock straight off the call, or
// bind it and never consult .report.  Narrowing to a ClockPtr does not
// compile (tests/compile/bad_sync_narrowing.cpp).  Not compiled.

namespace hcs::clocksync {

void caller_discards(simmpi::Comm& comm) {
  run_mini_sync(comm);  // hcs-lint-expect: ip-unchecked-sync-result
}

void caller_takes_clock(simmpi::Comm& comm) {
  install_clock(run_mini_sync(comm).clock);  // hcs-lint-expect: ip-unchecked-sync-result
}

void caller_binds_unchecked(simmpi::Comm& comm) {
  const auto res = run_mini_sync(comm);  // hcs-lint-expect: ip-unchecked-sync-result
  install_clock(res.clock);
}

}  // namespace hcs::clocksync
