#include "clocksync/clock_prop.hpp"

#include <gtest/gtest.h>

#include "topology/presets.hpp"
#include "vclock/global_clock.hpp"

namespace hcs::clocksync {
namespace {

TEST(ClockProp, CopiesReferenceChainToAllRanks) {
  // One node, 4 cores sharing a time source: after propagation, every rank's
  // clock must match the reference's exactly (same base, same models).
  simmpi::World w(topology::testbox(1, 4), 7);
  std::vector<vclock::ClockPtr> out(4);
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    vclock::ClockPtr clk = ctx.base_clock();
    if (ctx.rank() == 0) {
      // Pretend rank 0 was synchronized: nested two-level chain.
      clk = std::make_shared<vclock::GlobalClockLM>(clk, vclock::LinearModel{1e-6, 5e-6});
      clk = std::make_shared<vclock::GlobalClockLM>(clk, vclock::LinearModel{-2e-6, 1e-6});
    }
    ClockPropSync prop(0);
    out[static_cast<std::size_t>(ctx.rank())] =
        (co_await prop.sync_clocks(ctx.comm_world(), clk)).clock;
  });
  for (int r = 1; r < 4; ++r) {
    for (double t : {0.0, 2.5, 100.0}) {
      EXPECT_NEAR(out[static_cast<std::size_t>(r)]->at_exact(t), out[0]->at_exact(t), 1e-15)
          << "rank " << r << " t " << t;
    }
  }
}

TEST(ClockProp, IdentityChainPropagates) {
  simmpi::World w(topology::testbox(1, 3), 9);
  std::vector<vclock::ClockPtr> out(3);
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    ClockPropSync prop(0);
    out[static_cast<std::size_t>(ctx.rank())] =
        (co_await prop.sync_clocks(ctx.comm_world(), ctx.base_clock())).clock;
  });
  for (int r = 0; r < 3; ++r) {
    EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(r)]->at_exact(5.0),
                     w.base_clock(0)->at_exact(5.0));
  }
}

TEST(ClockProp, NonzeroReferenceRank) {
  simmpi::World w(topology::testbox(1, 4), 11);
  std::vector<vclock::ClockPtr> out(4);
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    vclock::ClockPtr clk = ctx.base_clock();
    if (ctx.rank() == 2) {
      clk = std::make_shared<vclock::GlobalClockLM>(clk, vclock::LinearModel{3e-6, -4e-6});
    }
    ClockPropSync prop(2);
    out[static_cast<std::size_t>(ctx.rank())] =
        (co_await prop.sync_clocks(ctx.comm_world(), clk)).clock;
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_NEAR(out[static_cast<std::size_t>(r)]->at_exact(7.0), out[2]->at_exact(7.0), 1e-15);
  }
}

TEST(ClockProp, TakesNetworkTimeProportionalToBroadcast) {
  simmpi::World w(topology::testbox(1, 8), 13);
  sim::Time end = 0;
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    ClockPropSync prop(0);
    (void)co_await prop.sync_clocks(ctx.comm_world(), ctx.base_clock());
    end = std::max(end, ctx.sim().now());
  });
  EXPECT_GT(end, 0.0);
  EXPECT_LT(end, 1e-3);  // two small broadcasts, well under a millisecond
}

TEST(ClockProp, NameIsStable) {
  EXPECT_EQ(ClockPropSync().name(), "ClockPropagation");
}

}  // namespace
}  // namespace hcs::clocksync
