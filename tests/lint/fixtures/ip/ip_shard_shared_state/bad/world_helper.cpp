// hcs-lint-path: src/simmpi/world.cpp
// Bad fixture for ip-shard-shared-state, file 1/2: the engine-owned helper.
// world.cpp is exempt from the per-file shard-shared-state rule (the engine
// may read shard 0's event loop), so the read is invisible file-locally.
// Not compiled.

namespace hcs::simmpi {

double now_of(RankCtx& ctx) { return ctx.world().sim().now(); }

}  // namespace hcs::simmpi
