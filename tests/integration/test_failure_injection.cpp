// Failure-injection scenarios: NTP clock steps and heavy network outliers.
// A production benchmarking tool must either survive these or make the
// breakage visible; these tests pin down which is which.
#include <gtest/gtest.h>

#include <cmath>

#include "clocksync/accuracy.hpp"
#include "clocksync/factory.hpp"
#include "clocksync/resync.hpp"
#include "clocksync/skampi_offset.hpp"
#include "mpibench/roundtime_scheme.hpp"
#include "topology/presets.hpp"
#include "vclock/hardware_clock.hpp"

namespace hcs {
namespace {

vclock::HardwareClock* hw_clock(simmpi::World& w, int rank) {
  return dynamic_cast<vclock::HardwareClock*>(w.base_clock(rank).get());
}

TEST(FailureInjection, ClockStepShiftsAllReadsAfterIt) {
  simmpi::World w(topology::testbox(1, 1), 3);
  vclock::HardwareClock* clk = hw_clock(w, 0);
  const double before = clk->at_exact(4.9);
  clk->inject_step(5.0, 250e-6);
  EXPECT_DOUBLE_EQ(clk->at_exact(4.9), before);  // past unaffected
  EXPECT_NEAR(clk->at_exact(5.1) - clk->at_exact(4.9), 0.2 + 250e-6, 1e-6);
}

TEST(FailureInjection, BackwardStepSupported) {
  simmpi::World w(topology::testbox(1, 1), 5);
  vclock::HardwareClock* clk = hw_clock(w, 0);
  clk->inject_step(2.0, -100e-6);
  EXPECT_LT(clk->at_exact(2.0 + 50e-6), clk->at_exact(2.0 - 1e-9));
}

TEST(FailureInjection, StepBreaksASynchronizedClockSilently) {
  // Sync, then step one node's hardware clock: the residual measured by
  // Check-Global-Clock after the step is dominated by the step size.
  simmpi::World w(topology::testbox(4, 2), 7);
  const double step = 300e-6;
  clocksync::AccuracyResult acc;
  const std::vector<int> clients = clocksync::sample_clients(w.size(), 0, 1.0, 1);
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto sync = clocksync::make_sync("hca3/recompute_intercept/100/skampi_offset/20");
    auto g = co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
    if (ctx.rank() == 6) {  // node 3's time source steps 1 s from now
      hw_clock(ctx.world(), 6)->inject_step(ctx.sim().now() + 1.0, step);
    }
    clocksync::SKaMPIOffset oalg(20);
    const auto r =
        co_await clocksync::check_clock_accuracy(ctx.comm_world(), *g.clock, oalg, 5.0, clients);
    if (ctx.rank() == 0) acc = r;
  });
  EXPECT_LT(acc.max_abs_t0, 5e-6);          // fine before the step
  EXPECT_GT(acc.max_abs_t1, 0.8 * step);    // broken after it
}

TEST(FailureInjection, PeriodicResyncRecoversFromStep) {
  auto residual_with_interval = [](double interval) {
    simmpi::World w(topology::testbox(4, 2), 9);
    std::vector<vclock::ClockPtr> clocks(static_cast<std::size_t>(w.size()));
    sim::Time end = 0;
    w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
      if (ctx.rank() == 5) {
        hw_clock(ctx.world(), 5)->inject_step(3.0, 400e-6);
      }
      clocksync::ResyncManager mgr(
          clocksync::make_sync("hca3/100/skampi_offset/20"), interval);
      for (int i = 0; i < 10; ++i) {
        clocks[static_cast<std::size_t>(ctx.rank())] =
            (co_await mgr.tick(ctx.comm_world(), ctx.base_clock())).clock;
        co_await ctx.sim().delay(1.0);
      }
      end = std::max(end, ctx.sim().now());
    });
    double worst = 0;
    for (int r = 1; r < w.size(); ++r) {
      worst = std::max(worst, std::abs(clocks[static_cast<std::size_t>(r)]->at_exact(end) -
                                       clocks[0]->at_exact(end)));
    }
    return worst;
  };
  const double with_resync = residual_with_interval(2.0);
  const double one_shot = residual_with_interval(1e9);
  EXPECT_GT(one_shot, 300e-6);   // the step persists in the stale model
  EXPECT_LT(with_resync, 50e-6);  // re-syncing after the step absorbs it
}

TEST(FailureInjection, RoundTimeSurvivesExtremeOutliers) {
  // 2% of messages delayed by ~1 ms: Round-Time must still deliver the
  // requested number of *valid* measurements.
  auto machine = topology::testbox(4, 2);
  machine.net.inter_node.spike_prob = 0.02;
  machine.net.inter_node.spike_mean = 1e-3;
  simmpi::World w(machine, 11);
  mpibench::MeasurementResult result;
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto sync = clocksync::make_sync("hca3/100/skampi_offset/20");
    auto g = co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
    mpibench::RoundTimeParams params;
    params.max_nrep = 60;
    params.max_time_slice = 30.0;
    const auto m = co_await mpibench::run_roundtime_scheme(
        ctx.comm_world(), *g.clock, mpibench::make_allreduce_op(8), params);
    if (ctx.rank() == 0) result = m;
  });
  EXPECT_EQ(result.valid_reps(), 60);
}

}  // namespace
}  // namespace hcs
