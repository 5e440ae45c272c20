// hcs-lint-path: src/clocksync/driver.cpp
// Good fixture for coll-rank-branch, file 2/2: the branches pick between
// helpers with identical collective bags, and the early exits skip no
// collective in reach.  Not compiled.

namespace hcs::clocksync {

sim::Task<void> drive_uniform(simmpi::Comm& comm) {
  const int r = comm.rank();
  if (r == 0) {
    co_await exchange_root(comm);
  } else {
    co_await exchange_leaf(comm);
  }
}

sim::Task<void> drive_local_tail(simmpi::Comm& comm, std::vector<double>& xs) {
  const int r = comm.rank();
  if (r != 0) {
    co_return;
  }
  co_await fold_residuals(xs);
}

// One arm calls barrier directly, the other through a helper that calls
// barrier: both reach the same collective.
sim::Task<void> drive_direct_or_helper(simmpi::Comm& comm) {
  const int r = comm.rank();
  if (r == 0) {
    co_await barrier(comm);
  } else {
    co_await exchange_leaf(comm);
  }
}

// The exit leaves only the lambda, which skips no collective.  Every rank
// still reaches the barrier of exchange_root after it.
sim::Task<void> drive_lambda_exit(simmpi::Comm& comm, std::vector<double>& xs) {
  auto leaf_only = [&]() -> sim::Task<void> {
    if (comm.rank() == 0) {
      co_return;
    }
    co_await fold_residuals(xs);
  };
  co_await leaf_only();
  co_await exchange_root(comm);
}

}  // namespace hcs::clocksync
