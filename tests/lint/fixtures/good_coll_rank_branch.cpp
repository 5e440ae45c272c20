// Good fixture for coll-rank-branch: every pattern here is rank-divergent
// control flow that is nevertheless collectively safe, and must stay silent.
#include "simmpi/collectives.hpp"

namespace fixture {

// Both branches reach the same collective sequence.
sim::Task<void> matched(hcs::simmpi::RankCtx& ctx) {
  if (ctx.rank() == 0) {
    co_await bcast(ctx.comm_world(), 1.0, 0);
  } else {
    co_await bcast(ctx.comm_world(), 0.0, 0);
  }
}

// Failure-detector checks are not rank branching: peer_status(rank) reads
// liveness, it does not pick a collective path by rank identity.
sim::Task<void> neutral_status(hcs::simmpi::RankCtx& ctx, int peer_rank) {
  if (ctx.comm_world().peer_status(peer_rank) == hcs::simmpi::PeerStatus::kDead) {
    co_return;
  }
  co_await barrier(ctx.comm_world());
}

// break only leaves the loop; every rank still reaches the barrier.
sim::Task<void> loop_break(hcs::simmpi::RankCtx& ctx) {
  for (int i = 0; i < 4; ++i) {
    if (i == ctx.rank()) {
      break;
    }
  }
  co_await barrier(ctx.comm_world());
}

// Rank-dependent work (not collectives) inside a branch is fine.
sim::Task<void> local_work(hcs::simmpi::RankCtx& ctx, std::vector<double>& acc) {
  if (ctx.rank() == 0) {
    acc.push_back(1.0);
  }
  co_await barrier(ctx.comm_world());
}

// The early return leaves only the lambda, not the coroutine: every rank
// still reaches the barrier after it.
sim::Task<void> lambda_exit(hcs::simmpi::RankCtx& ctx, std::vector<double>& acc) {
  const auto record = [&](double v) {
    if (ctx.rank() == 0) {
      return;
    }
    acc.push_back(v);
  };
  record(1.0);
  co_await barrier(ctx.comm_world());
}

}  // namespace fixture
