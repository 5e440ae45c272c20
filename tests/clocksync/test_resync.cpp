#include "clocksync/resync.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "clocksync/factory.hpp"
#include "topology/presets.hpp"

namespace hcs::clocksync {
namespace {

topology::MachineConfig drifting_machine() {
  auto m = topology::testbox(4, 2);
  m.clocks.base_skew_abs = 5e-6;     // strong 5 ppm drift
  m.clocks.skew_walk_sd = 0.05e-6;   // and a lively walk
  return m;
}

std::unique_ptr<ResyncManager> make_manager(double interval) {
  return std::make_unique<ResyncManager>(make_sync("hca3/100/skampi_offset/20"), interval);
}

TEST(Resync, RejectsBadArguments) {
  EXPECT_THROW(ResyncManager(nullptr, 1.0), std::invalid_argument);
  EXPECT_THROW(ResyncManager(make_sync("hca3/10/skampi_offset/5"), 0.0),
               std::invalid_argument);
}

TEST(Resync, FirstTickSynchronizes) {
  simmpi::World w(drifting_machine(), 3);
  int resyncs = -1;
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto mgr = make_manager(5.0);
    EXPECT_EQ(mgr->clock(), nullptr);
    const vclock::ClockPtr g = (co_await mgr->tick(ctx.comm_world(), ctx.base_clock())).clock;
    EXPECT_NE(g, nullptr);
    if (ctx.rank() == 0) resyncs = mgr->resyncs();
  });
  EXPECT_EQ(resyncs, 1);
}

TEST(Resync, NoResyncWithinInterval) {
  simmpi::World w(drifting_machine(), 5);
  int resyncs = -1;
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto mgr = make_manager(60.0);
    for (int i = 0; i < 5; ++i) {
      (void)co_await mgr->tick(ctx.comm_world(), ctx.base_clock());
      co_await ctx.sim().delay(0.1);
    }
    if (ctx.rank() == 0) resyncs = mgr->resyncs();
  });
  EXPECT_EQ(resyncs, 1);
}

TEST(Resync, ResyncsOncePerInterval) {
  simmpi::World w(drifting_machine(), 7);
  int resyncs = -1;
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto mgr = make_manager(2.0);
    for (int i = 0; i < 10; ++i) {
      (void)co_await mgr->tick(ctx.comm_world(), ctx.base_clock());
      co_await ctx.sim().delay(1.0);
    }
    if (ctx.rank() == 0) resyncs = mgr->resyncs();
  });
  // ~10 s of ticking with a 2 s interval: 1 initial + ~4 re-syncs.
  EXPECT_GE(resyncs, 4);
  EXPECT_LE(resyncs, 6);
}

TEST(Resync, KeepsLongRunningTraceAccurate) {
  // The §III-C2 motivation: over 30 s, a one-shot sync degrades while a
  // periodically refreshed clock stays accurate.
  auto residual_after = [](bool periodic, std::uint64_t seed) {
    simmpi::World w(drifting_machine(), seed);
    std::vector<vclock::ClockPtr> clocks(static_cast<std::size_t>(w.size()));
    sim::Time end = 0;
    w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
      auto mgr = make_manager(periodic ? 5.0 : 1e9);
      for (int i = 0; i < 30; ++i) {
        clocks[static_cast<std::size_t>(ctx.rank())] =
            (co_await mgr->tick(ctx.comm_world(), ctx.base_clock())).clock;
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
  double periodic_acc = 0, oneshot_acc = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    periodic_acc += residual_after(true, seed);
    oneshot_acc += residual_after(false, seed);
  }
  EXPECT_LT(periodic_acc, oneshot_acc);
}

TEST(Resync, AllRanksResyncTogether) {
  // The unanimity property: every rank performs the same number of resyncs
  // (a per-rank decision could deadlock or diverge).
  simmpi::World w(drifting_machine(), 11);
  std::vector<int> counts(static_cast<std::size_t>(w.size()), -1);
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto mgr = make_manager(1.0);
    for (int i = 0; i < 8; ++i) {
      (void)co_await mgr->tick(ctx.comm_world(), ctx.base_clock());
      co_await ctx.sim().delay(0.5);
    }
    counts[static_cast<std::size_t>(ctx.rank())] = mgr->resyncs();
  });
  for (int c : counts) EXPECT_EQ(c, counts[0]);
  EXPECT_GT(counts[0], 1);
}

}  // namespace
}  // namespace hcs::clocksync
