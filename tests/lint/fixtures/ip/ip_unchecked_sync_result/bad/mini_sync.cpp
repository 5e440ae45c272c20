// hcs-lint-path: src/clocksync/mini_sync.cpp
// Bad fixture for ip-unchecked-sync-result, file 1/3: a SyncResult-returning
// definition for the index to resolve.  Not compiled.

namespace hcs::clocksync {

SyncResult run_mini_sync(simmpi::Comm& comm) {
  SyncReport report;
  report.points_requested = comm.size();
  return SyncResult{nullptr, report};
}

}  // namespace hcs::clocksync
