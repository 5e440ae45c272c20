#include "sim/rng.hpp"
#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/host_clock.hpp"

namespace hcs::sim {
namespace {

TEST(Simulation, StartsAtTimeZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0.0);
}

TEST(Simulation, DelayAdvancesVirtualTime) {
  Simulation sim;
  Time observed = -1;
  sim.spawn([](Simulation& s, Time* out) -> Task<void> {
    co_await s.delay(1.5);
    *out = s.now();
  }(sim, &observed));
  sim.run();
  EXPECT_DOUBLE_EQ(observed, 1.5);
}

TEST(Simulation, SequentialDelaysAccumulate) {
  Simulation sim;
  Time observed = -1;
  sim.spawn([](Simulation& s, Time* out) -> Task<void> {
    co_await s.delay(1.0);
    co_await s.delay(2.0);
    co_await s.delay(0.25);
    *out = s.now();
  }(sim, &observed));
  sim.run();
  EXPECT_DOUBLE_EQ(observed, 3.25);
}

TEST(Simulation, NegativeDelayThrows) {
  Simulation sim;
  sim.spawn([](Simulation& s) -> Task<void> { co_await s.delay(-1.0); }(sim));
  EXPECT_THROW(sim.run(), std::invalid_argument);
}

TEST(Simulation, ProcessesInterleaveByTime) {
  Simulation sim;
  std::vector<int> order;
  auto proc = [](Simulation& s, std::vector<int>* order, int id, Time step) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await s.delay(step);
      order->push_back(id);
    }
  };
  sim.spawn(proc(sim, &order, 1, 1.0));  // fires at 1, 2, 3
  sim.spawn(proc(sim, &order, 2, 0.4));  // fires at 0.4, 0.8, 1.2
  sim.run();
  const std::vector<int> expected = {2, 2, 1, 2, 1, 1};
  EXPECT_EQ(order, expected);
}

TEST(Simulation, ZeroDelayPreservesFifoOrder) {
  Simulation sim;
  std::vector<int> order;
  auto proc = [](Simulation& s, std::vector<int>* order, int id) -> Task<void> {
    co_await s.delay(0.0);
    order->push_back(id);
  };
  for (int id = 0; id < 5; ++id) sim.spawn(proc(sim, &order, id));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, CountsProcesses) {
  Simulation sim;
  auto noop = [](Simulation& s) -> Task<void> { co_await s.delay(0.1); };
  sim.spawn(noop(sim));
  sim.spawn(noop(sim));
  sim.run();
  EXPECT_EQ(sim.processes_spawned(), 2u);
  EXPECT_EQ(sim.processes_finished(), 2u);
}

TEST(Simulation, EventBudgetGuardsRunaway) {
  Simulation sim;
  sim.spawn([](Simulation& s) -> Task<void> {
    for (;;) co_await s.delay(0.001);
  }(sim));
  EXPECT_THROW(sim.run(1000), std::runtime_error);
}

TEST(Simulation, RunDrainsAnEventAtInfinity) {
  // run() drains every queued event; a window bound, which excludes its own
  // end, must not leave one at kTimeInfinity behind.
  Simulation sim;
  bool resumed = false;
  sim.spawn([](Simulation& s, bool* out) -> Task<void> {
    co_await s.delay(kTimeInfinity);
    *out = true;
  }(sim, &resumed));
  sim.run();
  EXPECT_TRUE(resumed);
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.now(), kTimeInfinity);
  EXPECT_EQ(sim.events_processed(), 1u);
  EXPECT_EQ(sim.processes_finished(), 1u);
}

TEST(Simulation, EventsProcessedCounted) {
  Simulation sim;
  sim.spawn([](Simulation& s) -> Task<void> {
    co_await s.delay(0.1);
    co_await s.delay(0.1);
  }(sim));
  sim.run();
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(Simulation, ExceptionInProcessSurfacesFromRun) {
  Simulation sim;
  sim.spawn([](Simulation& s) -> Task<void> {
    co_await s.delay(0.5);
    throw std::logic_error("process failed");
  }(sim));
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(Simulation, DeterministicTwoRunsSameSchedule) {
  auto run_once = [](std::uint64_t seed) {
    Simulation sim;
    Rng rng(seed);
    std::vector<double> trace;
    sim.spawn([](Simulation& s, Rng* rng, std::vector<double>* trace) -> Task<void> {
      for (int i = 0; i < 50; ++i) {
        co_await s.delay(rng->exponential(1e-3));
        trace->push_back(s.now());
      }
    }(sim, &rng, &trace));
    sim.run();
    return trace;
  };
  EXPECT_EQ(run_once(99), run_once(99));
  EXPECT_NE(run_once(99), run_once(100));
}

TEST(Simulation, SpawnInsideRunningProcess) {
  Simulation sim;
  int children_done = 0;
  sim.spawn([](Simulation& s, int* done) -> Task<void> {
    co_await s.delay(1.0);
    for (int i = 0; i < 3; ++i) {
      s.spawn([](Simulation& s2, int* d) -> Task<void> {
        co_await s2.delay(0.5);
        ++*d;
      }(s, done));
    }
  }(sim, &children_done));
  sim.run();
  EXPECT_EQ(children_done, 3);
  EXPECT_EQ(sim.processes_finished(), 4u);
}

TEST(Simulation, TenThousandProcessesFinishInAnyOrder) {
  // Regression guard for the live-roots bookkeeping: finishing used to do a
  // linear scan over all live roots, making a p-process run O(p^2) in the
  // teardown phase.  With swap-and-pop it is O(p) total; at p = 10000 the
  // quadratic version takes seconds while this runs in milliseconds.  The
  // staggered delays make processes finish in an order different from spawn
  // order, exercising the swap (not just the pop-last fast path).
  Simulation sim;
  int done = 0;
  constexpr int kProcs = 10000;
  const double start = util::host_seconds();
  for (int i = 0; i < kProcs; ++i) {
    sim.spawn([](Simulation& s, int* done, int i) -> Task<void> {
      // Earlier spawns finish later: reverse completion order.
      co_await s.delay(1.0 + static_cast<Time>(kProcs - i) * 1e-6);
      ++*done;
    }(sim, &done, i));
  }
  sim.run();
  const double elapsed = util::host_seconds() - start;
  EXPECT_EQ(done, kProcs);
  EXPECT_EQ(sim.processes_finished(), static_cast<std::size_t>(kProcs));
  // Generous bound (quadratic teardown alone needs multiple seconds).
  EXPECT_LT(elapsed, 2.0);
}

TEST(Simulation, AbandonedBlockedProcessIsReclaimed) {
  // A process that waits forever is destroyed with the Simulation; the
  // ASAN/valgrind cleanliness of this test is the assertion.
  auto sim = std::make_unique<Simulation>();
  sim->spawn([](Simulation& s) -> Task<void> { co_await s.delay(1e9); }(*sim));
  // Do not run to completion; destroy with the event pending.
  sim.reset();
  SUCCEED();
}

// ------------------------------------------------------------- callbacks --

// A callback event that logs its id and the time it fired.  It owns a heap
// payload, like a message delivery, so a dropped one that leaked would show
// under ASan.
struct Mark final : Callback {
  Mark(std::vector<int>* log, int id) : log(log), id(id), payload(16, 1.0) {
    fire = [](Callback& self) {
      Mark& m = static_cast<Mark&>(self);
      m.log->push_back(m.id);
      ++m.fired;
    };
  }
  std::vector<int>* log;
  int id;
  int fired = 0;
  std::vector<double> payload;
};

TEST(SimulationCallback, InterleavesWithResumesInPushOrderAtEqualTimes) {
  Simulation sim;
  std::vector<int> order;
  Mark first(&order, 1), third(&order, 3);
  sim.schedule_callback(1.0, first);
  sim.spawn([](Simulation& s, std::vector<int>* log) -> Task<void> {
    co_await s.delay(1.0);  // pushed second, at the same time
    log->push_back(2);
  }(sim, &order));
  sim.schedule_callback(1.0, third);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 1.0);
}

TEST(SimulationCallback, FiresAtItsTimeAndClampsThePast) {
  Simulation sim;
  std::vector<int> order;
  Mark late(&order, 2), past(&order, 1);
  Time late_at = -1.0;
  sim.spawn([](Simulation& s, Mark* past, Mark* late, Time* late_at) -> Task<void> {
    co_await s.delay(2.0);
    s.schedule_callback(0.5, *past);  // in the past: fires now, after this resume
    s.schedule_callback(3.0, *late);
    co_await s.delay(2.0);
    *late_at = s.now();
  }(sim, &past, &late, &late_at));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(late_at, 4.0);
  EXPECT_EQ(sim.now(), 4.0);
}

TEST(SimulationCallback, EachCallbackCountsAsOneEventAndNoProcess) {
  Simulation sim;
  std::vector<int> order;
  std::vector<Mark> marks;
  marks.reserve(3);
  for (int i = 0; i < 3; ++i) marks.emplace_back(&order, i);
  for (Mark& m : marks) sim.schedule_callback(0.25 * m.id, m);
  EXPECT_EQ(sim.events_pending(), 3u);
  sim.run_window(0.5);  // fires the callbacks at 0 and 0.25
  EXPECT_EQ(sim.events_processed(), 2u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.events_processed(), 3u);
  EXPECT_EQ(sim.processes_spawned(), 0u);
  EXPECT_EQ(sim.processes_finished(), 0u);
}

TEST(SimulationCallback, ExceptionSurfacesFromRun) {
  Simulation sim;
  Callback thrower;
  thrower.fire = [](Callback&) { throw std::logic_error("callback failed"); };
  sim.schedule_callback(1.0, thrower);
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(SimulationCallback, TakeErrorDropsPendingCallbacksUnfired) {
  Simulation sim;
  std::vector<int> order;
  Mark before(&order, 1), after(&order, 2), tied(&order, 3);
  sim.schedule_callback(0.5, before);
  sim.spawn([](Simulation& s) -> Task<void> {
    co_await s.delay(1.0);
    throw std::runtime_error("boom");
  }(sim));
  sim.schedule_callback(1.0, tied);  // behind the failing resume
  sim.schedule_callback(2.0, after);
  sim.run_window(3.0);
  EXPECT_NE(sim.take_error(), nullptr);
  EXPECT_TRUE(sim.idle());
  sim.run();  // nothing left to fire
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(tied.fired + after.fired, 0);
}

TEST(SimulationCallback, DestructorDropsPendingCallbacksUnfired) {
  std::vector<int> order;
  Mark pending(&order, 1);
  {
    Simulation sim;
    sim.schedule_callback(1.0, pending);
    sim.spawn([](Simulation& s) -> Task<void> { co_await s.delay(2.0); }(sim));
  }
  EXPECT_EQ(pending.fired, 0);
  EXPECT_TRUE(order.empty());
}

}  // namespace
}  // namespace hcs::sim
