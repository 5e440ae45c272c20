// hcs-lint-path: src/clocksync/rebalance.cpp
// Good fixture for ip-shard-shared-state, file 2/2: the same caller as the
// bad set — clean because the helper no longer writes engine-owned state.
// Not compiled.

namespace hcs::clocksync {

void rebalance_rank(int shard) { pin_shard_for_rank(shard); }

int where_am_i() { return shard_of_this_thread(); }

}  // namespace hcs::clocksync
