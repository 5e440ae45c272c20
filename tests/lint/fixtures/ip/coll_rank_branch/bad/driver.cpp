// hcs-lint-path: src/clocksync/driver.cpp
// Bad fixture for coll-rank-branch, file 2/2: collectives hidden in the
// helpers of exchange_helpers.cpp.  The arms carry no direct collectives;
// the helpers they call perform {barrier} vs {allreduce}.  The early exits
// skip the barrier inside finish_round.  Not compiled.

namespace hcs::clocksync {

sim::Task<void> drive_divergent(simmpi::Comm& comm) {
  const int r = comm.rank();
  if (r == 0) {  // hcs-lint-expect: coll-rank-branch
    co_await exchange_root(comm);
  } else {
    co_await exchange_leaf(comm);
  }
}

sim::Task<void> drive_early_exit(simmpi::Comm& comm) {
  const int r = comm.rank();
  if (r != 0) {  // hcs-lint-expect: coll-rank-branch
    co_return;
  }
  co_await finish_round(comm);
}

// The exit leaves only the lambda, and inside the lambda it skips the
// barrier of finish_round.  The barrier after the lambda does not make up
// for it: rank 0 reaches two barriers, every other rank one.
sim::Task<void> drive_lambda_skips_helper(simmpi::Comm& comm) {
  auto root_round = [&]() -> sim::Task<void> {
    if (comm.rank() != 0) {  // hcs-lint-expect: coll-rank-branch
      co_return;
    }
    co_await finish_round(comm);
  };
  co_await root_round();
  co_await barrier(comm);
}

}  // namespace hcs::clocksync
