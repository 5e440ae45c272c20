#include "sim/frame_pool.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

namespace hcs::sim::detail {
namespace {

constexpr std::size_t kSlab = FramePool::kSlabBytes;

TEST(FramePool, RoundTripReusesBlocks) {
  FramePool pool;
  const FramePool::Scope scope(pool);
  void* a = FramePool::allocate(128);
  std::memset(a, 0xAB, 128);
  FramePool::deallocate(a);
  // The emptied slab serves the very next allocation from its start again.
  void* b = FramePool::allocate(128);
  EXPECT_EQ(a, b);
  FramePool::deallocate(b);
}

TEST(FramePool, PreservesMaxAlign) {
  FramePool pool;
  for (const bool pooled : {false, true}) {
    std::vector<void*> live;
    {
      std::optional<FramePool::Scope> scope;
      if (pooled) scope.emplace(pool);
      for (const std::size_t bytes : {1u, 7u, 64u, 120u, 500u, 2000u, 5000u}) {
        void* p = FramePool::allocate(bytes);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % alignof(std::max_align_t), 0u)
            << "bytes=" << bytes << " pooled=" << pooled;
        std::memset(p, 0x5C, bytes);
        live.push_back(p);
      }
    }
    for (void* p : live) FramePool::deallocate(p);
  }
}

TEST(FramePool, OversizedBlocksGoUnpooled) {
  FramePool pool;
  const FramePool::Scope scope(pool);
  void* p = FramePool::allocate(1 << 20);  // 1 MiB: far beyond the size classes
  std::memset(p, 0x11, 1 << 20);
  FramePool::deallocate(p);
  EXPECT_EQ(pool.bytes_held(), 0u);
}

TEST(FramePool, FramesAllocatedWithNoPoolInstalledAreUnpooled) {
  FramePool pool;
  void* outside = FramePool::allocate(64);  // no Scope: ::operator new
  EXPECT_EQ(pool.bytes_held(), 0u);
  {
    const FramePool::Scope scope(pool);
    void* inside = FramePool::allocate(64);
    EXPECT_EQ(pool.bytes_held(), kSlab);
    // An unpooled frame freed while a pool is installed still goes back to
    // ::operator delete, not into the pool.
    FramePool::deallocate(outside);
    FramePool::deallocate(inside);
  }
  EXPECT_EQ(pool.bytes_held(), kSlab);
}

// A slab whose last block is freed serves any size class: the pool holds
// the peak of its live frames, not the sum of every class's own peak.
TEST(FramePool, EmptiedSlabsServeAnotherSizeClass) {
  FramePool pool;
  const FramePool::Scope scope(pool);
  void* small = FramePool::allocate(192);
  FramePool::deallocate(small);
  void* large = FramePool::allocate(800);
  EXPECT_EQ(large, small) << "the emptied slab is carved for the new class";
  FramePool::deallocate(large);

  std::vector<void*> live;
  for (int i = 0; i < 100; ++i) live.push_back(FramePool::allocate(192));  // two slabs
  const std::size_t held = pool.bytes_held();
  const std::size_t reserved = FramePool::reserved_bytes();
  EXPECT_EQ(held, 2 * kSlab);
  for (void* p : live) FramePool::deallocate(p);
  live.clear();
  for (int i = 0; i < 32; ++i) live.push_back(FramePool::allocate(800));  // the same two
  EXPECT_EQ(pool.bytes_held(), held);
  EXPECT_EQ(FramePool::reserved_bytes(), reserved);
  for (void* p : live) FramePool::deallocate(p);
}

// Steady-state churn must not grow the pool: after the first round, the
// churning classes take turns on one emptied slab.
TEST(FramePool, ChurnDoesNotGrowReservation) {
  FramePool pool;
  const FramePool::Scope scope(pool);
  std::vector<void*> live;
  for (int i = 0; i < 64; ++i) live.push_back(FramePool::allocate(192));
  auto churn = [](int rounds) {
    for (int i = 0; i < rounds; ++i) FramePool::deallocate(FramePool::allocate(96 + (i % 8) * 64));
  };
  churn(8);
  const std::size_t held = pool.bytes_held();
  EXPECT_EQ(held, 2 * kSlab);
  churn(100000);
  EXPECT_EQ(pool.bytes_held(), held);
  for (void* p : live) FramePool::deallocate(p);
}

TEST(FramePool, ScopesNestAndRestoreThePreviousPool) {
  FramePool outer, inner;
  std::vector<void*> live;
  {
    const FramePool::Scope a(outer);
    live.push_back(FramePool::allocate(64));
    {
      const FramePool::Scope b(inner);
      live.push_back(FramePool::allocate(64));
      EXPECT_EQ(inner.bytes_held(), kSlab);
    }
    live.push_back(FramePool::allocate(1000));  // a new class: outer's second slab
    EXPECT_EQ(outer.bytes_held(), 2 * kSlab);
    EXPECT_EQ(inner.bytes_held(), kSlab);
  }
  live.push_back(FramePool::allocate(500));  // no pool installed again
  EXPECT_EQ(outer.bytes_held(), 2 * kSlab);
  EXPECT_EQ(inner.bytes_held(), kSlab);
  for (void* p : live) FramePool::deallocate(p);
}

// deallocate finds the owning pool through the block, whichever pool the
// freeing thread has installed.
TEST(FramePool, DeallocateReturnsTheBlockToItsOwningPool) {
  FramePool owner, other;
  const FramePool::Scope a(owner);
  void* p = FramePool::allocate(64);
  {
    const FramePool::Scope b(other);
    FramePool::deallocate(p);
    void* q = FramePool::allocate(64);
    EXPECT_NE(q, p);
    FramePool::deallocate(q);
  }
  void* r = FramePool::allocate(64);
  EXPECT_EQ(r, p);
  FramePool::deallocate(r);
}

TEST(FramePool, DestructorGivesTheSlabsBack) {
  auto fill = [] {
    FramePool pool;
    const FramePool::Scope scope(pool);
    std::vector<void*> live;
    for (int i = 0; i < 1000; ++i) live.push_back(FramePool::allocate(256));
    for (void* p : live) FramePool::deallocate(p);
    return pool.bytes_held();
  };
  EXPECT_GT(fill(), 0u);
  const std::size_t reserved = FramePool::reserved_bytes();
  // Were the first pool's slabs still held, the second would raise the
  // process-wide high-water mark by as much again.
  fill();
  EXPECT_EQ(FramePool::reserved_bytes(), reserved);
}

// No frame outlives its shard: a pool destroyed with a live frame aborts
// rather than leave the frame pointing at freed memory.
TEST(FramePoolDeathTest, DestroyingAPoolWithALiveFrameAborts) {
  EXPECT_DEATH(
      {
        FramePool pool;
        const FramePool::Scope scope(pool);
        (void)FramePool::allocate(64);
      },
      "a coroutine frame outlives its pool");
}

}  // namespace
}  // namespace hcs::sim::detail
