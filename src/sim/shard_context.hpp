// Thread-local shard index for the sharded (PDES) World engine.
//
// When a World is sharded (see docs/parallel-simulation.md), a window with
// events in two or more shards runs shard 0's event loop on the coordinating
// thread and each other shard's on its own worker thread; a window with
// events in one shard only runs that shard's loop on the coordinating
// thread.  Components that cache per-shard state (metric handles, per-shard
// registries) index it by the calling thread's shard.
// The default of 0 makes every unsharded path — tests, examples, --shards 1
// — behave exactly as before sharding existed: slot 0 is the whole world.
//
// The coordinating thread sets the shard index explicitly around all work it
// does on a shard's behalf: shard 0's part of a parallel window, lone
// windows, and the serial phases between windows (cross-shard mailbox
// drains, ping-pong rendezvous synthesis).
#pragma once

namespace hcs::sim {

namespace detail {
inline thread_local int tl_current_shard = 0;
}

/// Shard whose event loop the calling thread is executing (0 when unsharded).
inline int current_shard() noexcept { return detail::tl_current_shard; }

/// Set around each window a thread runs for a shard, and by the engine's serial
/// phases.
inline void set_current_shard(int shard) noexcept { detail::tl_current_shard = shard; }

}  // namespace hcs::sim
