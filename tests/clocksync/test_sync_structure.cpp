// Structural properties of the clocks each algorithm produces — the paper's
// §IV-B decorator design: flat algorithms yield exactly one model over the
// base clock; hierarchical composition nests one model per level; and
// ClockPropSync replicates the reference's chain shape on every rank.
#include <gtest/gtest.h>

#include "clocksync/factory.hpp"
#include "topology/presets.hpp"
#include "vclock/global_clock.hpp"

namespace hcs::clocksync {
namespace {

/// Number of GlobalClockLM layers above the hardware clock.
std::size_t chain_depth(const vclock::ClockPtr& clock) {
  const auto buffer = vclock::flatten_clock(clock);
  return static_cast<std::size_t>(buffer.at(0));
}

std::vector<vclock::ClockPtr> sync_all(const topology::MachineConfig& machine,
                                       const std::string& label, std::uint64_t seed) {
  simmpi::World w(machine, seed);
  std::vector<vclock::ClockPtr> clocks(static_cast<std::size_t>(w.size()));
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto sync = make_sync(label);
    clocks[static_cast<std::size_t>(ctx.rank())] =
        (co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock())).clock;
  });
  return clocks;
}

TEST(SyncStructure, FlatAlgorithmsYieldSingleModelOverBase) {
  const auto machine = topology::testbox(4, 2);
  for (const std::string label :
       {"hca3/20/skampi_offset/5", "hca2/20/skampi_offset/5", "hca/20/skampi_offset/5",
        "jk/20/skampi_offset/5"}) {
    const auto clocks = sync_all(machine, label, 3);
    for (const auto& clock : clocks) {
      EXPECT_EQ(chain_depth(clock), 1u) << label;
    }
  }
}

TEST(SyncStructure, H2ClockPropGivesNodeRanksTheLeadersEffectiveModel) {
  // Non-leaders receive the leader's chain stacked on their own dummy layer,
  // so the flatten *depth* differs by one — but the collapsed model (and
  // therefore every reading) must match the leader's exactly.
  const auto machine = topology::testbox(3, 4);
  const auto clocks =
      sync_all(machine, "top/hca3/20/skampi_offset/5/bottom/clockpropagation", 5);
  for (int node = 0; node < 3; ++node) {
    const auto leader = clocks[static_cast<std::size_t>(node * 4)];
    const auto leader_lm = vclock::collapse_models(leader);
    for (int r = node * 4 + 1; r < (node + 1) * 4; ++r) {
      const auto mine = vclock::collapse_models(clocks[static_cast<std::size_t>(r)]);
      EXPECT_DOUBLE_EQ(mine.slope, leader_lm.slope) << "rank " << r;
      EXPECT_DOUBLE_EQ(mine.intercept, leader_lm.intercept) << "rank " << r;
      EXPECT_GE(chain_depth(clocks[static_cast<std::size_t>(r)]), chain_depth(leader));
      EXPECT_NEAR(clocks[static_cast<std::size_t>(r)]->at_exact(7.0), leader->at_exact(7.0),
                  1e-12)
          << "rank " << r;
    }
  }
}

TEST(SyncStructure, HierarchicalFlatBottomNestsModels) {
  // hca3-over-hca3: non-leader ranks carry (bottom model) over (leaders'
  // dummy/base), leaders carry their top model — every rank depth >= 1 and
  // at least one rank nests two real levels.
  const auto machine = topology::testbox(3, 4);
  const auto clocks = sync_all(
      machine, "top/hca3/20/skampi_offset/5/bottom/hca3/10/skampi_offset/5", 7);
  std::size_t max_depth = 0;
  for (const auto& clock : clocks) {
    const std::size_t d = chain_depth(clock);
    EXPECT_GE(d, 1u);
    max_depth = std::max(max_depth, d);
  }
  EXPECT_GE(max_depth, 2u);
}

TEST(SyncStructure, CollapsedModelEqualsNestedEvaluation) {
  const auto machine = topology::testbox(2, 3);
  const auto clocks =
      sync_all(machine, "top/hca3/20/skampi_offset/5/bottom/hca3/10/skampi_offset/5", 9);
  simmpi::World probe(machine, 9);
  for (int r = 0; r < probe.size(); ++r) {
    const auto& clock = clocks[static_cast<std::size_t>(r)];
    const vclock::LinearModel flat = vclock::collapse_models(clock);
    const double base = probe.base_clock(r)->at_exact(5.0);
    // The collapsed model applied to the base value must match the chain —
    // but only when evaluated against the SAME base readings, so compare via
    // the rebuilt chain on the probe world's identical clock path.
    const auto rebuilt = vclock::unflatten_clock(probe.base_clock(r),
                                                 vclock::flatten_clock(clock));
    EXPECT_NEAR(flat.apply(base), rebuilt->at_exact(5.0), 1e-9);
  }
}

TEST(SyncStructure, IdentityDummyForSingleRankComm) {
  const auto clocks = sync_all(topology::testbox(1, 1), "hca3/10/skampi_offset/5", 11);
  ASSERT_EQ(clocks.size(), 1u);
  EXPECT_EQ(chain_depth(clocks[0]), 1u);
  const auto buf = vclock::flatten_clock(clocks[0]);
  EXPECT_EQ(buf.at(1), 0.0);  // identity slope
  EXPECT_EQ(buf.at(2), 0.0);  // identity intercept
}

}  // namespace
}  // namespace hcs::clocksync
