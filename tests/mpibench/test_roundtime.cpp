#include "mpibench/roundtime_scheme.hpp"

#include <gtest/gtest.h>

#include "clocksync/factory.hpp"
#include "mpibench/suites.hpp"
#include "topology/presets.hpp"
#include "util/stats.hpp"

namespace hcs::mpibench {
namespace {

topology::MachineConfig machine(int nodes, int cores) {
  auto m = topology::testbox(nodes, cores);
  m.clocks.initial_offset_abs = 1e-3;
  return m;
}

template <typename Fn>
MeasurementResult run_rt(const topology::MachineConfig& m, std::uint64_t seed, Fn params_fn) {
  simmpi::World w(m, seed);
  MeasurementResult result;
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto sync = clocksync::make_sync("hca3/50/skampi_offset/20");
    auto g = co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
    const RoundTimeParams params = params_fn();
    const auto r = co_await run_roundtime_scheme(ctx.comm_world(), *g.clock, make_allreduce_op(8),
                                                 params);
    if (ctx.rank() == 0) result = r;
  });
  return result;
}

TEST(RoundTime, StopsAtMaxNrep) {
  const auto result = run_rt(machine(2, 2), 3, [] {
    RoundTimeParams p;
    p.max_nrep = 15;
    p.max_time_slice = 10.0;
    return p;
  });
  EXPECT_EQ(result.valid_reps(), 15);
}

TEST(RoundTime, TimeSliceBoundsTheRun) {
  // A 3 ms slice fits many small allreduces but not unbounded repetitions.
  const auto result = run_rt(machine(2, 2), 5, [] {
    RoundTimeParams p;
    p.max_time_slice = 3e-3;
    return p;
  });
  EXPECT_GT(result.valid_reps(), 5);
  EXPECT_LT(result.valid_reps(), 2000);
}

TEST(RoundTime, GlobalRuntimePlausible) {
  const auto result = run_rt(machine(2, 2), 7, [] {
    RoundTimeParams p;
    p.max_nrep = 30;
    return p;
  });
  ASSERT_EQ(result.valid_reps(), 30);
  for (double rt : result.global_runtimes) {
    EXPECT_GT(rt, 1e-6);   // a real collective takes time
    EXPECT_LT(rt, 200e-6);  // but not absurdly long on a quiet testbox
  }
}

TEST(RoundTime, RejectsSlackBelowOne) {
  simmpi::World w(machine(1, 2), 9);
  w.launch([](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    RoundTimeParams p;
    p.slack_factor = 0.5;
    (void)co_await run_roundtime_scheme(ctx.comm_world(), *clk, make_allreduce_op(8), p);
  });
  EXPECT_THROW(w.run(), std::invalid_argument);
}

TEST(RoundTime, OutlierInvalidatesOnlyFewReps) {
  // Heavy spikes delay single repetitions; Round-Time re-announces the next
  // start after each rep, so most repetitions stay valid — unlike the fixed
  // window scheme (see WindowScheme.TooSmallWindowInvalidatesCascade).
  auto m = machine(2, 2);
  m.net.inter_node.spike_prob = 5e-3;
  m.net.inter_node.spike_mean = 200e-6;
  const auto result = run_rt(m, 11, [] {
    RoundTimeParams p;
    p.max_nrep = 200;
    p.max_time_slice = 10.0;
    return p;
  });
  EXPECT_EQ(result.valid_reps(), 200);
  EXPECT_LT(result.invalid_reps, 40);  // a few re-tries, not a cascade
}

TEST(RoundTime, MedianRobustToSpikes) {
  auto m = machine(2, 2);
  m.net.inter_node.spike_prob = 2e-3;
  m.net.inter_node.spike_mean = 500e-6;
  simmpi::World w(m, 13);
  SuiteReport report;
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto sync = clocksync::make_sync("hca3/50/skampi_offset/20");
    auto g = co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
    RoundTimeParams p;
    p.max_nrep = 100;
    const auto r = co_await run_repro_like(ctx.comm_world(), *g.clock, make_allreduce_op(8), p);
    if (ctx.rank() == 0) report = r;
  });
  EXPECT_GT(report.reported_latency, 1e-6);
  EXPECT_LT(report.reported_latency, 50e-6);  // median ignores the 500 us tail
}

}  // namespace
}  // namespace hcs::mpibench
