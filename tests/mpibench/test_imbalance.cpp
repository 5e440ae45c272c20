#include "mpibench/imbalance.hpp"

#include <gtest/gtest.h>

#include "clocksync/factory.hpp"
#include "topology/presets.hpp"
#include "util/stats.hpp"

namespace hcs::mpibench {
namespace {

std::vector<double> run_imbalance(const topology::MachineConfig& m, std::uint64_t seed,
                                  simmpi::BarrierAlgo algo, int ncalls) {
  simmpi::World w(m, seed);
  std::vector<double> out;
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto sync = clocksync::make_sync("hca3/100/skampi_offset/20");
    auto g = co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
    ImbalanceParams params;
    params.ncalls = ncalls;
    const auto imbalances =
        co_await measure_barrier_imbalance(ctx.comm_world(), *g.clock, algo, params);
    if (ctx.rank() == 0) out = imbalances;
  });
  return out;
}

TEST(Imbalance, PositiveAndBounded) {
  const auto imb = run_imbalance(topology::testbox(2, 4), 3, simmpi::BarrierAlgo::kTree, 50);
  ASSERT_GE(imb.size(), 45u);  // nearly all calls valid
  for (double v : imb) {
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, 1e-3);
  }
}

TEST(Imbalance, SingleRankZero) {
  const auto imb = run_imbalance(topology::testbox(1, 1), 5, simmpi::BarrierAlgo::kTree, 10);
  for (double v : imb) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(Imbalance, DoubleRingWorstOfAll) {
  // The paper omits double ring from Fig. 7 because "this algorithm had an
  // even larger influence" — its token circulates twice around the ring, so
  // exit times are staggered over O(p) latencies.
  const auto m = topology::jupiter().with_nodes(4);  // 64 ranks
  const auto ring = run_imbalance(m, 7, simmpi::BarrierAlgo::kDoubleRing, 30);
  for (simmpi::BarrierAlgo other :
       {simmpi::BarrierAlgo::kTree, simmpi::BarrierAlgo::kBruck,
        simmpi::BarrierAlgo::kRecursiveDoubling}) {
    const auto imb = run_imbalance(m, 7, other, 30);
    EXPECT_GT(util::median(ring), util::median(imb))
        << "double ring vs " << simmpi::to_string(other);
  }
}

TEST(Imbalance, AlgorithmsDifferSignificantly) {
  const auto m = topology::jupiter().with_nodes(4);
  const auto tree = run_imbalance(m, 9, simmpi::BarrierAlgo::kTree, 40);
  const auto bruck = run_imbalance(m, 9, simmpi::BarrierAlgo::kBruck, 40);
  EXPECT_NE(util::median(tree), util::median(bruck));
}

TEST(Imbalance, DeterministicForSeed) {
  const auto a = run_imbalance(topology::testbox(2, 2), 11, simmpi::BarrierAlgo::kBruck, 20);
  const auto b = run_imbalance(topology::testbox(2, 2), 11, simmpi::BarrierAlgo::kBruck, 20);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace hcs::mpibench
