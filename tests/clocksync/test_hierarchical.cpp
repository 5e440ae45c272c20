#include "clocksync/hierarchical.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "clocksync/clock_prop.hpp"
#include "clocksync/factory.hpp"
#include "clocksync/hca3.hpp"
#include "clocksync/skampi_offset.hpp"
#include "topology/presets.hpp"
#include "vclock/global_clock.hpp"

namespace hcs::clocksync {
namespace {

std::unique_ptr<ClockSync> h2_label_instance() {
  return make_sync("top/hca3/recompute_intercept/50/skampi_offset/20/bottom/clockpropagation");
}

double max_residual(simmpi::World& w, const std::function<std::unique_ptr<ClockSync>()>& make,
                    double probe_after) {
  const int p = w.size();
  std::vector<vclock::ClockPtr> clocks(static_cast<std::size_t>(p));
  sim::Time end = 0;
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto sync = make();
    clocks[static_cast<std::size_t>(ctx.rank())] =
        (co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock())).clock;
    end = std::max(end, ctx.sim().now());
  });
  double worst = 0;
  for (int r = 1; r < p; ++r) {
    worst = std::max(worst, std::abs(clocks[static_cast<std::size_t>(r)]->at_exact(
                                end + probe_after) -
                            clocks[0]->at_exact(end + probe_after)));
  }
  return worst;
}

TEST(Hierarchical, H2SynchronizesWholeMachine) {
  simmpi::World w(topology::testbox(4, 4), 5);
  EXPECT_LT(max_residual(w, h2_label_instance, 0.0), 2e-6);
}

TEST(Hierarchical, H2StillAccurateAfterTenSeconds) {
  // 50 fit points over a ~2 ms window gives a noisy slope; 10 s of that
  // slope error still stays well below 150 us (cf. tolerance note in
  // test_sync_algorithms.cpp; the benches reproduce the paper's numbers).
  simmpi::World w(topology::testbox(4, 4), 7);
  EXPECT_LT(max_residual(w, h2_label_instance, 10.0), 150e-6);
}

TEST(Hierarchical, H2WithinNodeClocksIdentical) {
  // ClockPropSync copies the leader's chain: non-leader ranks of one node
  // must agree with their leader EXACTLY (same time source, same models).
  simmpi::World w(topology::testbox(3, 4), 9);
  std::vector<vclock::ClockPtr> clocks(12);
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto sync = h2_label_instance();
    clocks[static_cast<std::size_t>(ctx.rank())] =
        (co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock())).clock;
  });
  for (int node = 0; node < 3; ++node) {
    const int leader = node * 4;
    for (int r = leader + 1; r < leader + 4; ++r) {
      EXPECT_NEAR(clocks[static_cast<std::size_t>(r)]->at_exact(3.0),
                  clocks[static_cast<std::size_t>(leader)]->at_exact(3.0), 1e-15)
          << "node " << node << " rank " << r;
    }
  }
}

TEST(Hierarchical, H3WithSocketLevel) {
  // 2 nodes x 2 sockets x 4 cores; per-socket time sources make the socket
  // level meaningful and keep ClockPropSync valid only within a socket.
  auto machine = topology::jupiter().with_nodes(2).with_time_source(
      topology::TimeSourceScope::kPerSocket);
  simmpi::World w(machine, 11);
  auto make = [] {
    return make_h3hca(
        std::make_unique<HCA3Sync>(SyncConfig{50, true}, std::make_unique<SKaMPIOffset>(20)),
        std::make_unique<HCA3Sync>(SyncConfig{30, true}, std::make_unique<SKaMPIOffset>(10)),
        std::make_unique<ClockPropSync>());
  };
  EXPECT_LT(max_residual(w, make, 0.0), 3e-6);
}

TEST(Hierarchical, H2FasterThanFlatOnMultiNodeMachine) {
  // The headline claim of §IV: fewer models to fit => shorter sync time.
  auto duration = [&](const std::string& label) {
    simmpi::World w(topology::testbox(8, 8), 13);
    sim::Time end = 0;
    w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
      auto sync = make_sync(label);
      (void)co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
      end = std::max(end, ctx.sim().now());
    });
    return end;
  };
  const double flat = duration("hca3/recompute_intercept/100/skampi_offset/20");
  const double hier =
      duration("top/hca3/recompute_intercept/100/skampi_offset/20/bottom/clockpropagation");
  EXPECT_LT(hier, flat);
}

TEST(Hierarchical, SingleNodeDegeneratesToBottomOnly) {
  simmpi::World w(topology::testbox(1, 4), 15);
  EXPECT_LT(max_residual(w, h2_label_instance, 0.0), 1e-6);
}

TEST(Hierarchical, OneRankPerNodeDegeneratesToTopOnly) {
  simmpi::World w(topology::testbox(4, 1), 17);
  EXPECT_LT(max_residual(w, h2_label_instance, 0.0), 2e-6);
}

TEST(Hierarchical, NameListsLevels) {
  EXPECT_EQ(h2_label_instance()->name(),
            "Top/hca3/recompute_intercept/50/skampi_offset/20/Bottom/ClockPropagation");
  auto h3 = make_h3hca(
      std::make_unique<HCA3Sync>(SyncConfig{10, false}, std::make_unique<SKaMPIOffset>(5)),
      std::make_unique<HCA3Sync>(SyncConfig{10, false}, std::make_unique<SKaMPIOffset>(5)),
      std::make_unique<ClockPropSync>());
  EXPECT_NE(h3->name().find("Mid/hca3"), std::string::npos);
}

TEST(Hierarchical, NullLevelRejected) {
  EXPECT_THROW(HierarchicalSync(nullptr, nullptr, std::make_unique<ClockPropSync>()),
               std::invalid_argument);
}

}  // namespace
}  // namespace hcs::clocksync
