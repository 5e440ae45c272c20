// Direct tests of LEARN_CLOCK_MODEL (paper Algorithm 2).
#include "clocksync/model_learning.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "clocksync/factory.hpp"
#include "clocksync/skampi_offset.hpp"
#include "fault/fault_plan.hpp"
#include "topology/presets.hpp"
#include "vclock/global_clock.hpp"
#include "vclock/hardware_clock.hpp"

namespace hcs::clocksync {
namespace {

topology::MachineConfig pair_machine(double skew_abs) {
  auto m = topology::testbox(2, 1);
  m.clocks.initial_offset_abs = 2e-3;
  m.clocks.base_skew_abs = skew_abs;
  m.clocks.skew_walk_sd = 0.0;
  return m;
}

vclock::LinearModel learn(const topology::MachineConfig& machine, const SyncConfig& cfg,
                          std::uint64_t seed, double* learn_end = nullptr) {
  simmpi::World w(machine, seed);
  vclock::LinearModel lm;
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    SKaMPIOffset oalg(20);
    auto clk = vclock::GlobalClockLM::identity(ctx.base_clock());
    const LearnResult result = co_await learn_clock_model(ctx.comm_world(), 0, 1, *clk, oalg, cfg);
    if (ctx.rank() == 1) {
      lm = result.model;
      // Fault-free, a fit with >= 2 points is clean; a single point is
      // reported kFailed by design (offset-only fallback).
      if (cfg.nfitpoints >= 2) {
        EXPECT_TRUE(result.report.clean());
      }
      if (learn_end) *learn_end = ctx.sim().now();
    }
  });
  return lm;
}

TEST(ModelLearning, ReferenceSideReturnsIdentity) {
  simmpi::World w(pair_machine(1e-6), 3);
  vclock::LinearModel ref_lm{1.0, 1.0};
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    SKaMPIOffset oalg(10);
    auto clk = vclock::GlobalClockLM::identity(ctx.base_clock());
    const SyncConfig cfg{20, false};
    const auto lm = co_await learn_clock_model(ctx.comm_world(), 0, 1, *clk, oalg, cfg);
    if (ctx.rank() == 0) ref_lm = lm.model;
  });
  EXPECT_TRUE(ref_lm.is_identity());
}

TEST(ModelLearning, RecoversSkewDifference) {
  const auto machine = pair_machine(50e-6);  // exaggerated so the short fit sees it
  simmpi::World probe(machine, 5);
  const auto hw0 = std::dynamic_pointer_cast<vclock::HardwareClock>(probe.base_clock(0));
  const auto hw1 = std::dynamic_pointer_cast<vclock::HardwareClock>(probe.base_clock(1));
  // The model maps client (rank 1) time to ref (rank 0) time; its slope
  // approximates (skew0 - skew1) to first order.
  const double expected = hw0->base_skew() - hw1->base_skew();
  const vclock::LinearModel lm = learn(machine, SyncConfig{200, false}, 5);
  EXPECT_NEAR(lm.slope, expected, 5e-6);
}

TEST(ModelLearning, ModelPredictsReferenceClock) {
  const auto machine = pair_machine(5e-6);
  simmpi::World probe(machine, 7);
  double end = 0;
  const vclock::LinearModel lm = learn(machine, SyncConfig{150, false}, 7, &end);
  // Apply the model to the client's clock reading at the end of learning and
  // compare with the reference clock at the same true instant.
  const double client = probe.base_clock(1)->at_exact(end);
  const double ref = probe.base_clock(0)->at_exact(end);
  EXPECT_NEAR(lm.apply(client), ref, 2e-6);
}

TEST(ModelLearning, MoreFitPointsTightenTheSlope) {
  const auto machine = pair_machine(5e-6);
  simmpi::World probe(machine, 9);
  const auto hw0 = std::dynamic_pointer_cast<vclock::HardwareClock>(probe.base_clock(0));
  const auto hw1 = std::dynamic_pointer_cast<vclock::HardwareClock>(probe.base_clock(1));
  const double expected = hw0->base_skew() - hw1->base_skew();
  double err_small = 0, err_large = 0;
  for (std::uint64_t seed = 9; seed < 15; ++seed) {
    err_small += std::abs(learn(machine, SyncConfig{20, false}, seed).slope - expected);
    err_large += std::abs(learn(machine, SyncConfig{400, false}, seed).slope - expected);
  }
  EXPECT_LT(err_large, err_small);
}

TEST(ModelLearning, RecomputeInterceptAnchorsAtMeasurementTime) {
  // With recompute_intercept, offset(timestamp) == measured offset exactly
  // (Alg. 2: intercept = slope * (-ts) + offset), so the model's residual at
  // the end of the learning window is tiny even if the fitted intercept from
  // the regression would have been biased.
  const auto machine = pair_machine(5e-6);
  simmpi::World probe(machine, 11);
  double end = 0;
  const vclock::LinearModel lm = learn(machine, SyncConfig{100, true}, 11, &end);
  const double client = probe.base_clock(1)->at_exact(end);
  const double ref = probe.base_clock(0)->at_exact(end);
  EXPECT_NEAR(lm.apply(client), ref, 1e-6);
}

TEST(ModelLearning, SingleFitPointFallsBackToOffsetOnly) {
  const auto machine = pair_machine(1e-6);
  const vclock::LinearModel lm = learn(machine, SyncConfig{1, false}, 13);
  EXPECT_EQ(lm.slope, 0.0);
  EXPECT_NE(lm.intercept, 0.0);  // offset of milliseconds magnitude
  EXPECT_LT(std::abs(lm.intercept), 5e-3);
}

TEST(ModelLearning, NonParticipantRejected) {
  simmpi::World w(topology::testbox(3, 1), 15);
  w.launch([](simmpi::RankCtx& ctx) -> sim::Task<void> {
    if (ctx.rank() != 2) co_return;
    SKaMPIOffset oalg(5);
    auto clk = vclock::GlobalClockLM::identity(ctx.base_clock());
    const SyncConfig cfg{5, false};
    (void)co_await learn_clock_model(ctx.comm_world(), 0, 1, *clk, oalg, cfg);
  });
  EXPECT_THROW(w.run(), std::logic_error);
}

TEST(ModelLearning, DurationScalesWithWork) {
  const auto machine = pair_machine(1e-6);
  double end_small = 0, end_large = 0;
  (void)learn(machine, SyncConfig{50, false}, 17, &end_small);
  (void)learn(machine, SyncConfig{200, false}, 17, &end_large);
  EXPECT_NEAR(end_large / end_small, 4.0, 1.0);
}

// Pins the min-RTT outlier filter bit for bit.  Reordered pings inflate some
// points' minimum RTT past twice the median, so the filter rejects them and
// the fit runs on the survivors; any change to which points survive, or to
// their order, moves the fitted model.
TEST(ModelLearning, OutlierRejectionUnderReorderIsPinned) {
  fault::FaultPlan plan;
  plan.add("reorder:p=0.5,delay=20us");
  simmpi::World w(topology::jupiter().with_nodes(2), 3, plan);
  std::vector<SyncReport> reports(static_cast<std::size_t>(w.size()));
  std::vector<vclock::LinearModel> models(static_cast<std::size_t>(w.size()));
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto sync = make_sync("hca3/recompute_intercept/40/skampi_offset/10");
    const SyncResult res = co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
    reports[static_cast<std::size_t>(ctx.rank())] = res.report;
    models[static_cast<std::size_t>(ctx.rank())] = vclock::collapse_models(res.clock);
  });
  int rejected = 0;
  for (const SyncReport& r : reports) rejected += r.outliers_rejected;
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(rejected, 24);
  // Ranks whose own fit dropped points (2 and 3 of 40).
  EXPECT_EQ(reports[9].outliers_rejected, 2);
  EXPECT_EQ(models[9].slope, 0x1.0e627f6f1e887p-20);
  EXPECT_EQ(models[9].intercept, -0x1.c5b3bad689218p-28);
  EXPECT_EQ(reports[13].outliers_rejected, 3);
  EXPECT_EQ(models[13].slope, 0x1.3ad5df48ec29bp-21);
  EXPECT_EQ(models[13].intercept, -0x1.2733e25e3a4eap-26);
}

}  // namespace
}  // namespace hcs::clocksync
