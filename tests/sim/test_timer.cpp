// Timer contract: a cancelled timer never resumes its coroutine, is not an
// event (not counted, does not advance now(), never the next event time),
// leaves the surviving events in (time, seq) order, and cannot grow the
// queue's storage beyond 2x the live events however often timers are armed
// and cancelled.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"

namespace hcs::sim {
namespace {

std::coroutine_handle<> tag(std::uintptr_t v) {
  return std::coroutine_handle<>::from_address(reinterpret_cast<void*>(v << 4));
}

// Parks the caller with a timer due at `wake`; the id lands in *timer.
struct ArmAndPark {
  Simulation* sim;
  Time wake;
  TimerId* timer;
  std::coroutine_handle<>* waiter;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    *waiter = h;
    *timer = sim->arm_timer(wake, h);
  }
  void await_resume() const noexcept {}
};

struct Parked {
  TimerId timer = kNoTimer;
  std::coroutine_handle<> waiter = nullptr;
  std::vector<Time> resumed_at;
};

Task<void> park_until(Simulation& s, Time wake, Parked* p) {
  ArmAndPark park{&s, wake, &p->timer, &p->waiter};
  co_await park;
  p->resumed_at.push_back(s.now());
}

TEST(Timer, FiresAtItsTimeWhenNotCancelled) {
  Simulation sim;
  Parked p;
  sim.spawn(park_until(sim, 2.5, &p));
  sim.run();
  EXPECT_EQ(p.resumed_at, std::vector<Time>{2.5});
  EXPECT_EQ(sim.events_processed(), 1u);
}

// The parked coroutine is resumed by someone else at t = 2; its timer,
// cancelled then, must not resume it a second time at t = 5.
TEST(Timer, CancelledTimerNeverResumes) {
  Simulation sim;
  Parked p;
  sim.spawn(park_until(sim, 5.0, &p));
  sim.spawn([](Simulation& s, Parked* p) -> Task<void> {
    co_await s.delay(2.0);
    s.cancel_timer(p->timer);
    s.schedule_at(s.now(), p->waiter);
  }(sim, &p));
  sim.run();
  EXPECT_EQ(p.resumed_at, std::vector<Time>{2.0});
  EXPECT_EQ(sim.now(), 2.0);  // the cancelled entry did not advance the clock
  EXPECT_EQ(sim.processes_finished(), 2u);
}

// Cancelled timers are no events: events_processed() counts only the live
// resumes, and next_event_time() skips a cancelled entry at the top, so it
// can never cut a PDES window.
TEST(Timer, CancelledEntriesAreNotEvents) {
  Simulation sim;
  std::vector<Parked> parked(10);
  for (std::size_t i = 0; i < parked.size(); ++i) {
    sim.spawn(park_until(sim, 1.0 + static_cast<Time>(i), &parked[i]));
  }
  EXPECT_EQ(sim.events_pending(), 10u);
  for (std::size_t i = 0; i < parked.size(); i += 2) sim.cancel_timer(parked[i].timer);
  EXPECT_EQ(sim.events_pending(), 5u);
  EXPECT_EQ(sim.next_event_time(), 2.0);  // the 1.0 timer was cancelled
  sim.run_window(4.0);  // runs 2.0 only: 3.0 is cancelled, 4.0 is not below 4.0
  EXPECT_EQ(sim.events_processed(), 1u);
  EXPECT_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.next_event_time(), 4.0);
  sim.run();
  EXPECT_EQ(sim.events_processed(), 5u);
  EXPECT_TRUE(sim.idle());
  for (std::size_t i = 0; i < parked.size(); ++i) {
    EXPECT_EQ(parked[i].resumed_at.size(), i % 2) << i;
  }
  // The five cancelled coroutines are still parked; ~Simulation reclaims them.
  EXPECT_EQ(sim.processes_finished(), 5u);
}

// Survivors pop in (time, seq) order, FIFO ties included, whatever mix of
// top, interior and compaction-triggering cancellations preceded them.
TEST(Timer, SurvivorsKeepTimeSeqOrder) {
  EventQueue q;
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<int> time_dist(0, 49);
  std::bernoulli_distribution cancel(0.6);
  std::vector<std::pair<Time, std::uint64_t>> expected;  // (time, seq) of survivors
  std::vector<std::uint64_t> armed;
  for (int i = 0; i < 20000; ++i) {
    const Time t = static_cast<Time>(time_dist(rng));
    const std::uint64_t seq = q.push(t, tag(static_cast<std::uintptr_t>(i + 1)));
    armed.push_back(seq);
    expected.emplace_back(t, seq);
    if (i % 7 == 6) {
      // Cancel a random batch of the still-armed entries.
      std::shuffle(armed.begin(), armed.end(), rng);
      while (!armed.empty() && cancel(rng)) {
        const std::uint64_t victim = armed.back();
        armed.pop_back();
        q.cancel(victim);
        expected.erase(std::find_if(expected.begin(), expected.end(),
                                    [&](const auto& e) { return e.second == victim; }));
      }
    }
  }
  ASSERT_EQ(q.size(), expected.size());
  std::sort(expected.begin(), expected.end());
  for (const auto& [t, seq] : expected) {
    ASSERT_FALSE(q.empty());
    const EventQueue::Event ev = q.pop();
    ASSERT_EQ(ev.time, t);
    ASSERT_EQ(ev.seq, seq);
  }
  EXPECT_TRUE(q.empty());
}

// 10^5 arm/cancel cycles against 1 000 live events: compaction keeps the
// backing storage within 2x the live events, and the live events survive.
// The bound holds from the first compaction on; before it, the vector's own
// growth step decides the capacity.
TEST(Timer, BackingCapacityStaysWithinTwiceLive) {
  EventQueue q;
  constexpr std::size_t kLive = 1000;
  for (std::size_t i = 0; i < kLive; ++i) q.push(1000.0 + static_cast<Time>(i), tag(1));
  std::size_t worst = 0;
  for (std::size_t i = 0; i < 100000; ++i) {
    // Due before every live event half the time, so top and interior
    // cancellations both occur; 2 * kLive cycles cancel kLive interior ones.
    const std::uint64_t seq = q.push(i % 2 == 0 ? 1.0 : 5000.0, tag(2));
    q.cancel(seq);
    ASSERT_EQ(q.size(), kLive);
    if (i >= 2 * kLive) worst = std::max(worst, q.backing_capacity());
  }
  EXPECT_LE(worst, 2 * kLive);
  for (std::size_t i = 0; i < kLive; ++i) {
    ASSERT_EQ(q.pop().time, 1000.0 + static_cast<Time>(i));
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace hcs::sim
