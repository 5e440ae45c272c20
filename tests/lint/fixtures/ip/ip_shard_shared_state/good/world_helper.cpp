// hcs-lint-path: src/simmpi/world.cpp
// Good fixture for ip-shard-shared-state, file 1/2: the helper reads the
// rank's own shard through the per-rank accessor.  Not compiled.

namespace hcs::simmpi {

double now_of(RankCtx& ctx) { return ctx.sim().now(); }

}  // namespace hcs::simmpi
