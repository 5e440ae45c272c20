// hcs-lint-path: src/clocksync/rebalance.cpp
// Bad fixture for ip-shard-shared-state, file 2/2: rank code reaching shard
// 0's clock through the exempt helper.  Not compiled.

namespace hcs::clocksync {

double stamp_rank(simmpi::RankCtx& ctx) {
  return now_of(ctx);  // hcs-lint-expect: ip-shard-shared-state
}

}  // namespace hcs::clocksync
