#include <gtest/gtest.h>

#include "clocksync/factory.hpp"
#include "mpibench/barrier_scheme.hpp"
#include "mpibench/window_scheme.hpp"
#include "topology/presets.hpp"
#include "util/stats.hpp"

namespace hcs::mpibench {
namespace {

topology::MachineConfig quiet_machine(int nodes, int cores) {
  auto m = topology::testbox(nodes, cores);
  m.clocks.initial_offset_abs = 1e-3;
  return m;
}

TEST(BarrierScheme, ProducesRequestedRepetitions) {
  simmpi::World w(quiet_machine(2, 2), 3);
  MeasurementResult result;
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    BarrierSchemeParams params;
    params.nrep = 25;
    const auto m =
        co_await run_barrier_scheme(ctx.comm_world(), *clk, make_allreduce_op(8), params);
    if (ctx.rank() == 0) result = m;
  });
  ASSERT_EQ(result.valid_reps(), 25);
  for (const auto& ranks : result.latencies) {
    ASSERT_EQ(ranks.size(), 4u);
    for (double lat : ranks) {
      EXPECT_GT(lat, 0.0);
      EXPECT_LT(lat, 1e-3);
    }
  }
}

TEST(BarrierScheme, NonRootGetsEmptyResult) {
  simmpi::World w(quiet_machine(2, 1), 3);
  MeasurementResult at_one;
  at_one.invalid_reps = -1;
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    const auto m = co_await run_barrier_scheme(ctx.comm_world(), *clk, make_allreduce_op(8),
                                               BarrierSchemeParams{10, simmpi::BarrierAlgo::kTree});
    if (ctx.rank() == 1) at_one = m;
  });
  EXPECT_TRUE(at_one.latencies.empty());
}

TEST(BarrierScheme, LatencyGrowsWithMessageSize) {
  auto measure = [](std::int64_t msize) {
    simmpi::World w(quiet_machine(2, 2), 7);
    double mean = 0;
    w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
      auto clk = ctx.base_clock();
      const auto m = co_await run_barrier_scheme(
          ctx.comm_world(), *clk, make_allreduce_op(msize),
          BarrierSchemeParams{30, simmpi::BarrierAlgo::kTree});
      if (ctx.rank() == 0) {
        std::vector<double> flat;
        for (const auto& ranks : m.latencies) flat.push_back(util::mean(ranks));
        mean = util::mean(flat);
      }
    });
    return mean;
  };
  EXPECT_GT(measure(1 << 20), measure(8));
}

TEST(WindowScheme, AllRepsValidWithGenerousWindow) {
  simmpi::World w(quiet_machine(2, 2), 9);
  MeasurementResult result;
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto sync = clocksync::make_sync("hca3/50/skampi_offset/20");
    auto g = co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
    WindowSchemeParams params;
    params.nrep = 20;
    params.window = 500e-6;  // plenty for a small allreduce
    const auto m =
        co_await run_window_scheme(ctx.comm_world(), *g.clock, make_allreduce_op(8), params);
    if (ctx.rank() == 0) result = m;
  });
  EXPECT_EQ(result.invalid_reps, 0);
  EXPECT_EQ(result.valid_reps(), 20);
  for (double rt : result.global_runtimes) {
    EXPECT_GT(rt, 0.0);
    EXPECT_LT(rt, 500e-6);
  }
}

TEST(WindowScheme, TooSmallWindowInvalidatesCascade) {
  // The window-scheme weakness the paper describes: windows shorter than the
  // operation make ranks miss (many) subsequent start times.
  simmpi::World w(quiet_machine(2, 2), 11);
  MeasurementResult result;
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto sync = clocksync::make_sync("hca3/50/skampi_offset/20");
    auto g = co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
    WindowSchemeParams params;
    params.nrep = 20;
    params.window = 1e-6;  // far below the allreduce latency
    const auto m =
        co_await run_window_scheme(ctx.comm_world(), *g.clock, make_allreduce_op(8), params);
    if (ctx.rank() == 0) result = m;
  });
  EXPECT_GT(result.invalid_reps, 10);
}

TEST(WindowScheme, GlobalRuntimeAtLeastLocalLatency) {
  simmpi::World w(quiet_machine(2, 2), 13);
  MeasurementResult result;
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto sync = clocksync::make_sync("hca3/50/skampi_offset/20");
    auto g = co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
    const auto m = co_await run_window_scheme(ctx.comm_world(), *g.clock, make_allreduce_op(8),
                                              WindowSchemeParams{10, 500e-6, 1e-3});
    if (ctx.rank() == 0) result = m;
  });
  ASSERT_GT(result.valid_reps(), 0);
  for (int rep = 0; rep < result.valid_reps(); ++rep) {
    // Global runtime includes the rank that finished last, so it dominates
    // any single rank's local latency minus clock error.
    EXPECT_GE(result.global_runtimes[static_cast<std::size_t>(rep)],
              util::max(result.latencies[static_cast<std::size_t>(rep)]) - 2e-6);
  }
}

TEST(WaitUntilGlobal, LateReturnsFalseImmediately) {
  simmpi::World w(quiet_machine(1, 2), 15);
  bool late_result = true;
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    co_await ctx.sim().delay(0.01);
    const bool ok = co_await wait_until_global(ctx.comm_world(), *clk, clk->now() - 1e-3);
    if (ctx.rank() == 0) late_result = ok;
  });
  EXPECT_FALSE(late_result);
}

TEST(WaitUntilGlobal, WaitsToTargetWithinTolerance) {
  simmpi::World w(quiet_machine(1, 2), 17);
  double reached = 0, target = 0;
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    target = clk->now() + 5e-3;
    const bool ok = co_await wait_until_global(ctx.comm_world(), *clk, target);
    EXPECT_TRUE(ok);
    if (ctx.rank() == 0) reached = clk->now();
  });
  EXPECT_NEAR(reached, target, 1e-6);
  EXPECT_GE(reached, target - 100e-9);
}

}  // namespace
}  // namespace hcs::mpibench
