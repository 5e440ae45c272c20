// hcs-lint-path: src/clocksync/exchange_helpers.cpp
// Bad fixture for coll-rank-branch, file 1/2: helpers whose collective
// footprints differ.  File-locally each is fine — the divergence only
// appears when a rank-dependent branch picks between them.  Not compiled.

namespace hcs::clocksync {

sim::Task<void> exchange_root(simmpi::Comm& comm) {
  co_await barrier(comm);
}

sim::Task<void> exchange_leaf(simmpi::Comm& comm) {
  double v = 0.0;
  co_await allreduce(comm, v);
}

sim::Task<void> finish_round(simmpi::Comm& comm) {
  co_await barrier(comm);
}

}  // namespace hcs::clocksync
