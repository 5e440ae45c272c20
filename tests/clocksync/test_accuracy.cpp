#include "clocksync/accuracy.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "clocksync/factory.hpp"
#include "clocksync/skampi_offset.hpp"
#include "topology/presets.hpp"
#include "vclock/hardware_clock.hpp"

namespace hcs::clocksync {
namespace {

TEST(SampleClients, FullFractionReturnsAllOthers) {
  const auto clients = sample_clients(6, 0, 1.0, 7);
  EXPECT_EQ(clients, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(SampleClients, ExcludesNonzeroRef) {
  const auto clients = sample_clients(4, 2, 1.0, 7);
  EXPECT_EQ(clients, (std::vector<int>{0, 1, 3}));
}

TEST(SampleClients, FractionSubsamplesDeterministically) {
  const auto a = sample_clients(1000, 0, 0.1, 42);
  const auto b = sample_clients(1000, 0, 0.1, 42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 100u);  // 10% of 999 rounds to 100
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  const auto c = sample_clients(1000, 0, 0.1, 43);
  EXPECT_NE(a, c);
}

TEST(SampleClients, AtLeastOneClient) {
  const auto clients = sample_clients(2, 0, 1e-9, 7);
  EXPECT_EQ(clients.size(), 1u);
}

TEST(CheckClockAccuracy, PerfectlySyncedClocksShowSmallResidual) {
  // All ranks on one node share the hardware clock => residual ~ noise only.
  simmpi::World w(topology::testbox(1, 4), 3);
  AccuracyResult result;
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    SKaMPIOffset oalg(20);
    const auto clients = sample_clients(ctx.comm_world().size(), 0, 1.0, 1);
    const AccuracyResult r =
        co_await check_clock_accuracy(ctx.comm_world(), *clk, oalg, 0.5, clients, 0);
    if (ctx.rank() == 0) result = r;
  });
  ASSERT_EQ(result.offsets_t0.size(), 3u);
  ASSERT_EQ(result.offsets_t1.size(), 3u);
  EXPECT_LT(result.max_abs_t0, 1e-6);
  EXPECT_LT(result.max_abs_t1, 1e-6);
}

TEST(CheckClockAccuracy, UnsyncedClocksShowTheirOffset) {
  auto machine = topology::testbox(2, 1);
  machine.clocks.initial_offset_abs = 5e-3;
  machine.clocks.base_skew_abs = 0.0;
  machine.clocks.skew_walk_sd = 0.0;
  simmpi::World w(machine, 11);
  const double truth =
      w.base_clock(0)->at_exact(0.0) - w.base_clock(1)->at_exact(0.0);
  AccuracyResult result;
  const std::vector<int> one_client = {1};
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    SKaMPIOffset oalg(20);
    const AccuracyResult r =
        co_await check_clock_accuracy(ctx.comm_world(), *clk, oalg, 0.1, one_client, 0);
    if (ctx.rank() == 0) result = r;
  });
  EXPECT_NEAR(result.offsets_t0.at(0), truth, 3e-6);
  EXPECT_NEAR(result.max_abs_t0, std::abs(truth), 3e-6);
}

TEST(CheckClockAccuracy, DriftGrowsBetweenT0AndT1) {
  // Strong uncorrected skew: after 2 s the offset must have grown.
  auto machine = topology::testbox(2, 1);
  machine.clocks.initial_offset_abs = 0.0;
  machine.clocks.base_skew_abs = 50e-6;  // 50 ppm
  machine.clocks.skew_walk_sd = 0.0;
  simmpi::World w(machine, 13);
  const auto hw0 = std::dynamic_pointer_cast<vclock::HardwareClock>(w.base_clock(0));
  const auto hw1 = std::dynamic_pointer_cast<vclock::HardwareClock>(w.base_clock(1));
  const double skew_diff = std::abs(hw0->base_skew() - hw1->base_skew());
  AccuracyResult result;
  const std::vector<int> one_client = {1};
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    SKaMPIOffset oalg(10);
    const AccuracyResult r =
        co_await check_clock_accuracy(ctx.comm_world(), *clk, oalg, 2.0, one_client, 0);
    if (ctx.rank() == 0) result = r;
  });
  const double growth = std::abs(result.offsets_t1.at(0) - result.offsets_t0.at(0));
  EXPECT_NEAR(growth, skew_diff * 2.0, skew_diff);
  EXPECT_GT(growth, 1e-6);
}

TEST(CheckClockAccuracy, SampledSubsetOnly) {
  simmpi::World w(topology::testbox(1, 6), 17);
  AccuracyResult result;
  const std::vector<int> clients = {2, 4};
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    SKaMPIOffset oalg(5);
    const AccuracyResult r =
        co_await check_clock_accuracy(ctx.comm_world(), *clk, oalg, 0.01, clients, 0);
    if (ctx.rank() == 0) result = r;
  });
  EXPECT_EQ(result.clients, clients);
  EXPECT_EQ(result.offsets_t0.size(), 2u);
}

TEST(CheckClockAccuracy, AfterHca3SyncResidualIsMicrosecondScale) {
  // Integration: full sync + accuracy check as the bench harnesses do it.
  auto machine = topology::testbox(4, 2);
  simmpi::World w(machine, 19);
  AccuracyResult result;
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto sync = make_sync("hca3/recompute_intercept/100/skampi_offset/20");
    const vclock::ClockPtr g =
        (co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock())).clock;
    SKaMPIOffset oalg(20);
    const auto clients = sample_clients(ctx.comm_world().size(), 0, 1.0, 1);
    const AccuracyResult r =
        co_await check_clock_accuracy(ctx.comm_world(), *g, oalg, 1.0, clients, 0);
    if (ctx.rank() == 0) result = r;
  });
  EXPECT_LT(result.max_abs_t0, 3e-6);
  EXPECT_LT(result.max_abs_t1, 10e-6);
  EXPECT_GT(result.max_abs_t0, 0.0);  // never exactly zero with noise
}

}  // namespace
}  // namespace hcs::clocksync
