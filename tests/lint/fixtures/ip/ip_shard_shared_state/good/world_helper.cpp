// hcs-lint-path: src/simmpi/world.cpp
// Good fixture for ip-shard-shared-state, file 1/2: the helper routes the
// request through the mailbox API instead of writing the shard slot, and
// only reads the sanctioned per-rank accessor.  Not compiled.

namespace hcs::simmpi {

void pin_shard_for_rank(int shard) {
  const int cur = current_shard();
  if (cur != shard) post_migration_request(shard);
}

// Only reads the thread-local slot (world.cpp owns it): a read re-points
// nothing, so it is no taint source for callers.
int shard_of_this_thread() { return tl_current_shard; }

}  // namespace hcs::simmpi
