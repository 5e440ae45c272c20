// hcs-lint-path: src/clocksync/exchange_helpers.cpp
// Good fixture for coll-rank-branch, file 1/2: both exchange helpers
// perform the same collective, so either arm reaches the same sequence.
// Not compiled.

namespace hcs::clocksync {

sim::Task<void> exchange_root(simmpi::Comm& comm) {
  co_await barrier(comm);
}

sim::Task<void> exchange_leaf(simmpi::Comm& comm) {
  co_await barrier(comm);
}

sim::Task<void> fold_residuals(std::vector<double>& xs) {
  double acc = 0.0;
  for (double x : xs) acc += x;
  xs.assign(1, acc);
  co_return;
}

}  // namespace hcs::clocksync
