// hcs-lint-path: tests/clocksync/test_probe.cpp
// Good fixture for ip-unchecked-sync-result, file 4/4: tests/ is exempt —
// a harness may drive sync_clocks purely for its side effects.  Not
// compiled.

namespace hcs::clocksync {

void probe_once(simmpi::Comm& comm) {
  run_mini_sync(comm);
}

}  // namespace hcs::clocksync
