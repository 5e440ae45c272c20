// Slab-backed, thread-cached allocator for coroutine frames.
//
// Every blocking operation in the simulator (delay, p2p, collectives, the
// sync algorithms' phases) is a short-lived Task<T> coroutine whose frame
// would otherwise round-trip through malloc/free millions of times per run.
// Two layers keep that cheap at 100k+ ranks:
//
// * **Thread caches** (FramePool): per-thread, size-bucketed freelists.
//   Allocation is a pointer pop in the steady state, deallocation a pointer
//   push, no locks — each thread owns its cache.  runner::TrialRunner runs
//   whole trials per thread, so their frames are born and die on one
//   thread.  A PDES shard's windows run on its worker or, when the shard is
//   the window's only one with events, on the coordinating thread, so a
//   shard's frames may be freed on another thread than the one that
//   allocated them.  That is cheap while blocks flow both ways.  A one-way
//   flow is not: the allocating thread's cache never refills from the
//   frees, so the arena carves a fresh slab for each of its misses.  Message
//   deliveries would be such a flow (the coordinator schedules every
//   inter-node one, the workers fire them), so they are callback events
//   whose records recycle per destination shard, not coroutines
//   (simmpi/world.hpp).
// * **A global slab arena** (SlabArena): when a thread cache misses, it
//   refills a whole batch of blocks carved from 64 KiB size-classed slabs
//   under one mutex acquisition, instead of one ::operator new per frame.
//   A 100k-rank World's frames land contiguously instead of scattered
//   across the heap, and the startup cost is one slab allocation per
//   ~64 KiB of frames rather than per frame.  Dying threads hand their
//   chains back to the arena, so shard workers from one run recycle
//   into the next.  Slabs live until process exit (freed by the arena
//   destructor, keeping leak checkers quiet); peak footprint is visible to
//   benches via FramePool::reserved_bytes().
//
// Layout: each block carries a small header tagging its bucket so sized and
// unsized deallocation both work; frames larger than the largest bucket fall
// through to ::operator new/delete untouched.  Blocks freed on a different
// thread than the one that allocated them simply land in the freeing
// thread's cache — correct, but see the one-way flow above.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <vector>

namespace hcs::sim::detail {

class SlabArena {
 public:
  static SlabArena& instance() {
    static SlabArena arena;
    return arena;
  }

  // Pops up to `want` blocks of size `block_bytes` as a chain linked through
  // each block's first word; carves a fresh slab when the recycled chains run
  // dry.  Always returns at least one block.
  void* take_chain(std::size_t bucket, std::size_t block_bytes,
                   std::size_t want) {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_[bucket] == nullptr) carve_slab(bucket, block_bytes);
    void* head = free_[bucket];
    void* tail = head;
    for (std::size_t i = 1; i < want; ++i) {
      void* next = *static_cast<void**>(tail);
      if (next == nullptr) break;
      tail = next;
    }
    free_[bucket] = *static_cast<void**>(tail);
    *static_cast<void**>(tail) = nullptr;
    return head;
  }

  // Returns a chain of blocks (linked through their first word) to the
  // arena's recycled list — used by thread caches on thread exit.
  void give_chain(std::size_t bucket, void* head) noexcept {
    if (head == nullptr) return;
    void* tail = head;
    while (*static_cast<void**>(tail) != nullptr) {
      tail = *static_cast<void**>(tail);
    }
    std::lock_guard<std::mutex> lock(mu_);
    *static_cast<void**>(tail) = free_[bucket];
    free_[bucket] = head;
  }

  std::size_t bytes_reserved() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }

  static constexpr std::size_t kBuckets = 33;  // pooled blocks up to 2 KiB
  static constexpr std::size_t kSlabBytes = std::size_t{1} << 16;  // 64 KiB

 private:
  SlabArena() = default;
  ~SlabArena() {
    for (void* slab : slabs_) ::operator delete(slab);
  }
  SlabArena(const SlabArena&) = delete;
  SlabArena& operator=(const SlabArena&) = delete;

  // Called under mu_.  One slab serves kSlabBytes/block_bytes frames; all of
  // them join the recycled chain at once.
  void carve_slab(std::size_t bucket, std::size_t block_bytes) {
    const std::size_t count = kSlabBytes / block_bytes > 0
                                  ? kSlabBytes / block_bytes
                                  : std::size_t{1};
    const std::size_t slab_bytes = count * block_bytes;
    char* slab = static_cast<char*>(::operator new(slab_bytes));
    slabs_.push_back(slab);
    bytes_.fetch_add(slab_bytes, std::memory_order_relaxed);
    for (std::size_t i = 0; i < count; ++i) {
      void* block = slab + i * block_bytes;
      *static_cast<void**>(block) = free_[bucket];
      free_[bucket] = block;
    }
  }

  std::mutex mu_;
  std::vector<void*> slabs_;
  void* free_[kBuckets] = {};
  std::atomic<std::size_t> bytes_{0};
};

class FramePool {
 public:
  static void* allocate(std::size_t bytes) {
    const std::size_t total = bytes + kHeader;
    const std::size_t bucket = (total + kGranularity - 1) / kGranularity;
    Cache& c = cache();
    ++c.frames;
    if (bucket >= kBuckets) return finish(::operator new(total), 0);  // 0 = unpooled
    if (void* p = c.free[bucket]) {
      c.free[bucket] = *static_cast<void**>(p);
      return finish(p, bucket);
    }
    // Miss: pull a batch from the arena under one lock, keep the rest.
    const std::size_t block_bytes = bucket * kGranularity;
    void* head = SlabArena::instance().take_chain(bucket, block_bytes,
                                                  kRefillBatch);
    c.free[bucket] = *static_cast<void**>(head);
    return finish(head, bucket);
  }

  static void deallocate(void* user) noexcept {
    void* p = static_cast<char*>(user) - kHeader;
    const std::size_t bucket = *static_cast<std::size_t*>(p);
    if (bucket == 0) {
      ::operator delete(p);
      return;
    }
    Cache& c = cache();
    *static_cast<void**>(p) = c.free[bucket];
    c.free[bucket] = p;
  }

  /// Total slab bytes the process has carved for pooled frames (never
  /// shrinks; slabs are recycled, not returned).  Benches report this next
  /// to peak RSS so frame-memory growth is visible per scale point.
  static std::size_t reserved_bytes() noexcept {
    return SlabArena::instance().bytes_reserved();
  }

  /// Frames this thread has allocated so far, pooled or not.  Tests pin the
  /// frames each blocking operation costs with it.
  static std::uint64_t frames_allocated() noexcept { return cache().frames; }

 private:
  // The header must preserve the alignment ::operator new guarantees, since
  // coroutine frames assume at most that from their promise's operator new.
  // Slab carving keeps it: blocks are multiples of kGranularity from a
  // max_align_t-aligned slab base.
  static constexpr std::size_t kHeader = alignof(std::max_align_t);
  static constexpr std::size_t kGranularity = 64;  // one cache line per step
  static constexpr std::size_t kBuckets = SlabArena::kBuckets;
  static constexpr std::size_t kRefillBatch = 32;

  struct Cache {
    void* free[kBuckets] = {};
    std::uint64_t frames = 0;
    // Thread exit: hand every chain back to the arena so the next worker
    // generation reuses these frames.  Thread-storage objects are destroyed
    // before static-storage ones, so the arena is still alive here.
    ~Cache() {
      for (std::size_t b = 0; b < kBuckets; ++b) {
        if (free[b] != nullptr) SlabArena::instance().give_chain(b, free[b]);
      }
    }
  };

  static Cache& cache() noexcept {
    static thread_local Cache c;
    return c;
  }

  static void* finish(void* p, std::size_t bucket) noexcept {
    *static_cast<std::size_t*>(p) = bucket;
    return static_cast<char*>(p) + kHeader;
  }
};

}  // namespace hcs::sim::detail
