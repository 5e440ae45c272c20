// hcs-lint-path: src/clocksync/rebalance.cpp
// Good fixture for ip-shard-shared-state, file 2/2: the same caller as the
// bad set — clean because the helper no longer reads shard 0's event loop.
// Not compiled.

namespace hcs::clocksync {

double stamp_rank(simmpi::RankCtx& ctx) { return now_of(ctx); }

}  // namespace hcs::clocksync
