#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

namespace hcs::sim {
namespace {

// The queue stores raw handles; for ordering tests a tag pointer works.  It
// is shifted like a frame address is aligned: the low bit marks a callback.
std::coroutine_handle<> tag(std::uintptr_t v) {
  return std::coroutine_handle<>::from_address(reinterpret_cast<void*>(v << 4));
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(3.0, tag(3));
  q.push(1.0, tag(1));
  q.push(2.0, tag(2));
  EXPECT_EQ(q.pop().time, 1.0);
  EXPECT_EQ(q.pop().time, 2.0);
  EXPECT_EQ(q.pop().time, 3.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  q.push(1.0, tag(10));
  q.push(1.0, tag(20));
  q.push(1.0, tag(30));
  EXPECT_EQ(q.pop().handle().address(), tag(10).address());
  EXPECT_EQ(q.pop().handle().address(), tag(20).address());
  EXPECT_EQ(q.pop().handle().address(), tag(30).address());
}

TEST(EventQueue, NextTimePeeksWithoutPopping) {
  EventQueue q;
  q.push(5.0, tag(1));
  q.push(2.0, tag(2));
  EXPECT_EQ(q.next_time(), 2.0);
  EXPECT_EQ(q.size(), 2u);
}

TEST(EventQueue, SizeTracksPushPop) {
  EventQueue q;
  EXPECT_EQ(q.size(), 0u);
  q.push(1.0, tag(1));
  q.push(2.0, tag(2));
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, ClearDropsEverything) {
  EventQueue q;
  q.push(1.0, tag(1));
  q.push(2.0, tag(2));
  q.clear();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, InterleavedPushPopKeepsOrder) {
  EventQueue q;
  q.push(4.0, tag(4));
  q.push(1.0, tag(1));
  EXPECT_EQ(q.pop().time, 1.0);
  q.push(2.0, tag(2));
  q.push(0.5, tag(5));
  EXPECT_EQ(q.pop().time, 0.5);
  EXPECT_EQ(q.pop().time, 2.0);
  EXPECT_EQ(q.pop().time, 4.0);
}

TEST(EventQueue, ManyEventsSorted) {
  EventQueue q;
  for (int i = 999; i >= 0; --i) q.push(static_cast<Time>(i % 97), tag(1));
  Time last = -1;
  while (!q.empty()) {
    const Time t = q.pop().time;
    EXPECT_GE(t, last);
    last = t;
  }
}

// The ordering contract the simulator depends on: among equal timestamps,
// pops come in push order (FIFO), even when pushes at that timestamp are
// interleaved with pushes and pops at other timestamps.
TEST(EventQueue, InterleavedEqualTimesStayFifo) {
  EventQueue q;
  q.push(2.0, tag(1));
  q.push(1.0, tag(9));
  q.push(2.0, tag(2));
  EXPECT_EQ(q.pop().handle().address(), tag(9).address());
  q.push(2.0, tag(3));
  q.push(3.0, tag(8));
  q.push(2.0, tag(4));
  for (std::uintptr_t expected = 1; expected <= 4; ++expected) {
    const EventQueue::Event ev = q.pop();
    EXPECT_EQ(ev.time, 2.0);
    EXPECT_EQ(ev.handle().address(), tag(expected).address());
  }
  EXPECT_EQ(q.pop().handle().address(), tag(8).address());
}

// Records every push and pop of one queue.  Pushes never precede the last
// popped event, so the full pop sequence must be exactly the std::stable_sort
// of all pushes by time (push order breaks ties).
class StableOrderCheck {
 public:
  void push(Time t) {
    ++id_;
    q_.push(t, tag(id_));
    pushed_.push_back({t, id_});
  }
  Time pop() {
    popped_.push_back(q_.pop());
    return popped_.back().time;
  }
  const EventQueue& queue() const { return q_; }

  // Drains the queue, then compares the pops with the reference sort.
  void verify() {
    while (!q_.empty()) pop();
    std::stable_sort(pushed_.begin(), pushed_.end(),
                     [](const Pushed& a, const Pushed& b) { return a.time < b.time; });
    ASSERT_EQ(popped_.size(), pushed_.size());
    for (std::size_t i = 0; i < pushed_.size(); ++i) {
      ASSERT_EQ(popped_[i].time, pushed_[i].time) << "pop " << i;
      ASSERT_EQ(popped_[i].handle().address(), tag(pushed_[i].id).address()) << "pop " << i;
    }
  }

 private:
  struct Pushed {
    Time time;
    std::uintptr_t id;
  };
  EventQueue q_;
  std::uintptr_t id_ = 0;
  std::vector<Pushed> pushed_;
  std::vector<EventQueue::Event> popped_;
};

// Grows a queue to `population` pending events with simulator-shaped
// timestamps — frequent ties, 2 % "never" sentinels, everything in the future
// of the drain frontier — popping now and then, and checks the order.
void check_growing_population(std::size_t population, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dt_dist(0.0, 10.0);
  std::uniform_int_distribution<int> tie_dist(0, 50);
  std::uniform_int_distribution<int> coin(0, 99);
  StableOrderCheck check;
  Time now = 0.0;
  while (check.queue().size() < population) {
    const int c = coin(rng);
    if (c < 30) {
      check.push(now + static_cast<Time>(tie_dist(rng)));
    } else if (c < 32) {
      check.push(kTimeInfinity);
    } else {
      check.push(now + dt_dist(rng));
    }
    // Pop only while a finite event is due, so later pushes stay in the future.
    if (coin(rng) < 10 && check.queue().next_time() < kTimeInfinity) now = check.pop();
  }
  check.verify();
}

// Randomized checks against a reference sort by (time, push order), on the
// inputs the simulator produces: the queue must pop exactly the stable order.
TEST(EventQueue, RandomizedMatchesStableOrder) {
  {
    SCOPED_TRACE("few distinct timestamps: many ties stress the seq tiebreak");
    std::mt19937_64 rng(42);
    std::uniform_int_distribution<int> time_dist(0, 20);
    for (int round = 0; round < 20; ++round) {
      StableOrderCheck check;
      for (int i = 0; i < 500; ++i) check.push(static_cast<Time>(time_dist(rng)));
      check.verify();
    }
  }
  {
    SCOPED_TRACE("kTimeInfinity sentinels mixed with finite events");
    check_growing_population(20000, 2026);
  }
  {
    SCOPED_TRACE("100 000-event equal-timestamp burst pops FIFO");
    StableOrderCheck check;
    for (int i = 0; i < 100000; ++i) check.push(1.0);
    check.verify();
  }
  {
    SCOPED_TRACE("a barely-future push after each pop");
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> far(100.0, 200.0);
    std::uniform_real_distribution<double> eps(0.0, 1e-6);
    StableOrderCheck check;
    for (int i = 0; i < 100000; ++i) check.push(far(rng));
    for (int i = 0; i < 100000; ++i) check.push(check.pop() + eps(rng));
    check.verify();
  }
  {
    SCOPED_TRACE("a population past 300 000 pending");
    check_growing_population(300001, 11);
  }
}

// clear() must also reset the tiebreak sequence so a reused queue orders
// exactly like a fresh one.
TEST(EventQueue, ReuseAfterClearKeepsFifoTies) {
  EventQueue q;
  q.push(1.0, tag(1));
  q.push(1.0, tag(2));
  q.clear();
  q.push(5.0, tag(3));
  q.push(5.0, tag(4));
  q.push(5.0, tag(5));
  EXPECT_EQ(q.pop().handle().address(), tag(3).address());
  EXPECT_EQ(q.pop().handle().address(), tag(4).address());
  EXPECT_EQ(q.pop().handle().address(), tag(5).address());
}

// A drained burst must not pin its peak memory: the pop-shrink policy has to
// walk the backing capacity back down below kShrinkMinCapacity (4096 slots)
// once the events are gone.
TEST(EventQueue, DrainedBurstReleasesCapacity) {
  EventQueue q;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> time_dist(0.0, 1000.0);
  constexpr std::size_t kBurst = 200000;
  for (std::size_t i = 0; i < kBurst; ++i) q.push(time_dist(rng), tag(1));
  EXPECT_GE(q.backing_capacity(), kBurst);
  Time last = -1.0;
  while (!q.empty()) {
    const Time t = q.pop().time;
    ASSERT_GE(t, last);
    last = t;
  }
  EXPECT_LT(q.backing_capacity(), 4096u);
}

// The shrink reallocation copies the live heap; the events still pending
// across it, and those pushed after it, must keep the (time, push order)
// order, FIFO ties included.
TEST(EventQueue, ShrinkKeepsPendingOrder) {
  std::mt19937_64 rng(5);
  std::uniform_int_distribution<int> time_dist(0, 9);
  StableOrderCheck check;
  for (int i = 0; i < 50000; ++i) check.push(static_cast<Time>(time_dist(rng)));
  const std::size_t peak_capacity = check.queue().backing_capacity();
  Time now = 0.0;
  while (check.queue().size() > 100) now = check.pop();
  EXPECT_LT(check.queue().backing_capacity(), peak_capacity);
  for (int i = 0; i < 100; ++i) check.push(now + static_cast<Time>(i % 3));
  check.verify();
}

// clear() hands the backing storage back, so a queue that is reused after an
// aborted run does not pin the aborted run's peak.
TEST(EventQueue, ClearReleasesBackingStorage) {
  EventQueue q;
  for (int i = 0; i < 10000; ++i) q.push(static_cast<Time>(i), tag(1));
  EXPECT_GE(q.backing_capacity(), 10000u);
  q.clear();
  EXPECT_EQ(q.backing_capacity(), 0u);
}

}  // namespace
}  // namespace hcs::sim
