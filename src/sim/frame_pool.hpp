// One slab allocator for coroutine frames per PDES shard.
//
// Every blocking operation in the simulator (delay, p2p, collectives, the
// sync algorithms' phases) is a short-lived Task<T> coroutine whose frame
// would otherwise round-trip through malloc/free millions of times per run,
// and at scale every rank holds its chain of them at once.  Each
// sim::Simulation, so each shard of a simmpi::World, owns a FramePool as its
// first member: the pool is destroyed after every frame of the shard.
//
// * **Which pool.** A FramePool::Scope installs a pool on the calling thread
//   and restores the previous one on exit.  Simulation::spawn and the event
//   loop (Simulation::drain_through) hold one for their own pool, and
//   World::ShardScope for the shard it runs.  A frame allocated with no pool
//   installed (a Task built before run()) goes to ::operator new.
// * **Slabs.** A pool carves 16 KiB slabs lazily, with a bump pointer, into
//   blocks of one 16 B size class each; a freed block goes on its slab's
//   free list.  A slab whose last live block is freed joins the pool's empty
//   list, where any size class reuses it, so a pool holds about the peak of
//   its live frames, not the sum of every size class's own peak (a World's
//   split frames peak at its start, its sync frames later).  ~FramePool
//   frees every slab, so the next World or trial gets the memory back from
//   malloc.  A frame still live then would outlive its shard: the destructor
//   aborts.
// * **Threads.** Each block's header names its slab and each slab its pool,
//   so deallocate returns a block to its owner without reading a
//   thread-local.  There are no locks: only the thread running a shard, or
//   the coordinator while the shard workers are parked, creates, resumes or
//   destroys that shard's frames (drain_through holds the only resume()).
//
// Under AddressSanitizer free blocks and each slab's uncarved tail are
// poisoned, so ASan reports a use of a destroyed frame.  Frames larger than
// the largest size class go to ::operator new/delete.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace hcs::sim::detail {

class FramePool {
 public:
  FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  ~FramePool() {
    held_ -= bytes_held();
    while (Slab* s = empty_) {
      empty_ = s->next;
      unpoison(s, kSlabBytes);
      ::operator delete(s);
      --slabs_;
    }
    if (slabs_ != 0) {
      std::fputs("FramePool: a coroutine frame outlives its pool\n", stderr);
      std::abort();
    }
  }

  /// Installs `pool` for the frames this thread allocates until the scope
  /// ends, then restores the previously installed pool (or none).
  class Scope {
   public:
    explicit Scope(FramePool& pool) noexcept : previous_(std::exchange(tls_.pool, &pool)) {}
    ~Scope() { tls_.pool = previous_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    FramePool* previous_;
  };

  static void* allocate(std::size_t bytes) {
    ThreadState& t = tls_;
    ++t.frames;
    const std::size_t cls = (bytes + kHeader + kGranularity - 1) / kGranularity;
    if (t.pool != nullptr && cls < kClasses) return t.pool->take(cls) + 1;
    auto* h = static_cast<Header*>(::operator new(bytes + kHeader));
    h->slab = nullptr;  // unpooled
    return h + 1;
  }

  static void deallocate(void* user) noexcept {
    Header* h = static_cast<Header*>(user) - 1;
    if (h->slab == nullptr) {
      ::operator delete(h);
      return;
    }
    h->slab->pool->give(h);
  }

  /// Slab bytes this pool holds now.
  std::size_t bytes_held() const noexcept { return slabs_ * kSlabBytes; }

  /// High-water mark of the slab bytes all pools of the process held at
  /// once.  Benches report it next to peak RSS so frame-memory growth is
  /// visible per scale point.
  static std::size_t reserved_bytes() noexcept { return peak_.load(); }

  /// Frames this thread has allocated so far, pooled or not.  Tests pin the
  /// frames each blocking operation costs with it.
  static std::uint64_t frames_allocated() noexcept { return tls_.frames; }

  static constexpr std::size_t kSlabBytes = std::size_t{1} << 14;  // 16 KiB

 private:
  static constexpr std::size_t kMaxBlock = 2048;  // larger frames go unpooled
  struct Slab;

  // Sits before every frame.  Its size keeps the alignment ::operator new
  // guarantees, which coroutine frames assume from their promise's operator
  // new: blocks are multiples of kGranularity from a max_align_t-aligned
  // slab data start.
  struct alignas(std::max_align_t) Header {
    Slab* slab;         // owning slab, nullptr for an unpooled frame
    Header* next_free;  // the slab's next free block, while this one is free
  };

  struct Slab {
    FramePool* pool;
    Slab* prev;     // neighbours in partial_[cls], or (next) in empty_
    Slab* next;
    Header* free;   // freed blocks of this slab
    char* bump;     // the next uncarved block
    char* last;     // the last address a whole block can start at
    std::size_t cls;
    std::uint32_t block_bytes;
    std::uint32_t live;  // blocks handed out and not yet given back
  };

  struct ThreadState {
    FramePool* pool;  // the installed pool, nullptr for none
    std::uint64_t frames;
  };

  static constexpr std::size_t kHeader = sizeof(Header);
  static constexpr std::size_t kGranularity = alignof(std::max_align_t);
  static constexpr std::size_t kClasses = kMaxBlock / kGranularity + 1;
  static constexpr std::size_t kSlabHeader =
      (sizeof(Slab) + kGranularity - 1) / kGranularity * kGranularity;
  static_assert(kHeader == kGranularity);
  // give() relies on a slab with a live block and a free or uncarved one
  // being listed, which holds once every slab has room for two blocks.
  static_assert((kSlabBytes - kSlabHeader) / kMaxBlock >= 2);

  static char* data(Slab* s) noexcept { return reinterpret_cast<char*>(s) + kSlabHeader; }

#if defined(__SANITIZE_ADDRESS__)
  static void poison(void* p, std::size_t n) noexcept { ASAN_POISON_MEMORY_REGION(p, n); }
  static void unpoison(void* p, std::size_t n) noexcept { ASAN_UNPOISON_MEMORY_REGION(p, n); }
#else
  static void poison(void*, std::size_t) noexcept {}
  static void unpoison(void*, std::size_t) noexcept {}
#endif

  Header* take(std::size_t cls) {
    Slab* s = partial_[cls];
    if (s == nullptr) s = open_slab(cls);
    Header* h = s->free;
    if (h != nullptr) {
      s->free = h->next_free;
    } else {
      h = reinterpret_cast<Header*>(s->bump);
      s->bump += s->block_bytes;
    }
    unpoison(h, s->block_bytes);
    h->slab = s;
    ++s->live;
    if (s->free == nullptr && s->bump > s->last) unlink(s);  // now full
    return h;
  }

  void give(Header* h) noexcept {
    Slab* s = h->slab;
    if (--s->live == 0) {
      // Listed, since it had room for this block's neighbour: reuse it for
      // any size class.
      unlink(s);
      poison(data(s), kSlabBytes - kSlabHeader);
      s->next = empty_;
      empty_ = s;
      return;
    }
    const bool was_full = s->free == nullptr && s->bump > s->last;
    h->next_free = s->free;
    s->free = h;
    poison(h + 1, s->block_bytes - kHeader);
    if (was_full) link(s);
  }

  // A slab for class `cls` from the empty list, or a new one.
  Slab* open_slab(std::size_t cls) {
    Slab* s = empty_;
    if (s != nullptr) {
      empty_ = s->next;
    } else {
      s = static_cast<Slab*>(::operator new(kSlabBytes));
      ++slabs_;
      const std::size_t now = held_ += kSlabBytes;
      std::size_t peak = peak_.load();
      while (now > peak && !peak_.compare_exchange_weak(peak, now)) {
      }
      poison(data(s), kSlabBytes - kSlabHeader);
    }
    s->pool = this;
    s->free = nullptr;
    s->bump = data(s);
    s->block_bytes = static_cast<std::uint32_t>(cls * kGranularity);
    s->last = reinterpret_cast<char*>(s) + kSlabBytes - s->block_bytes;
    s->cls = cls;
    s->live = 0;
    link(s);
    return s;
  }

  void link(Slab* s) noexcept {
    Slab*& head = partial_[s->cls];
    s->prev = nullptr;
    s->next = head;
    if (head != nullptr) head->prev = s;
    head = s;
  }

  void unlink(Slab* s) noexcept {
    (s->prev != nullptr ? s->prev->next : partial_[s->cls]) = s->next;
    if (s->next != nullptr) s->next->prev = s->prev;
  }

  Slab* partial_[kClasses] = {};  // per class: slabs with a free or uncarved block
  Slab* empty_ = nullptr;         // slabs with no live block, any class
  std::size_t slabs_ = 0;         // slabs this pool holds

  static constinit inline thread_local ThreadState tls_{};
  static inline std::atomic<std::size_t> held_{0};  // slab bytes all pools hold now
  static inline std::atomic<std::size_t> peak_{0};  // high-water mark of held_
};

}  // namespace hcs::sim::detail
