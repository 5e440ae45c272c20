// End-to-end accuracy tests for the synchronization algorithm family:
// after sync_clocks, all ranks' global clocks must agree to within a small
// error, for every algorithm, on power-of-two and odd world sizes.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "clocksync/factory.hpp"
#include "topology/presets.hpp"
#include "vclock/global_clock.hpp"

namespace hcs::clocksync {
namespace {

topology::MachineConfig machine(int nodes, int cores) {
  auto m = topology::testbox(nodes, cores);
  m.clocks.initial_offset_abs = 5e-3;
  m.clocks.base_skew_abs = 2e-6;
  m.clocks.skew_walk_sd = 0.005e-6;
  return m;
}

/// Runs `label` on the machine and returns, for each rank, the deviation of
/// its global clock from rank 0's global clock, probed `probe_after` seconds
/// after the sync completes (using noiseless clock evaluation).
std::vector<double> residuals(const std::string& label, int nodes, int cores,
                              double probe_after, std::uint64_t seed) {
  simmpi::World w(machine(nodes, cores), seed);
  const int p = w.size();
  std::vector<vclock::ClockPtr> clocks(static_cast<std::size_t>(p));
  sim::Time sync_end = 0.0;
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto sync = make_sync(label);
    clocks[static_cast<std::size_t>(ctx.rank())] =
        co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
    sync_end = std::max(sync_end, ctx.sim().now());
  });
  const double t = sync_end + probe_after;
  std::vector<double> out;
  const double ref = clocks[0]->at_exact(t);
  for (int r = 1; r < p; ++r) {
    out.push_back(clocks[static_cast<std::size_t>(r)]->at_exact(t) - ref);
  }
  return out;
}

double max_abs(const std::vector<double>& xs) {
  double m = 0;
  for (double x : xs) m = std::max(m, std::abs(x));
  return m;
}

// Note on tolerances: these unit tests run deliberately small configs
// (50-100 fit points over a few-millisecond window), so the fitted slope is
// far noisier than the paper's 1000-point production configs — the 5 s
// tolerance reflects slope_error x 5 s, not the paper's accuracy numbers
// (those are reproduced by the bench harnesses at full scale).
struct Case {
  std::string label;
  double tol_at_0;   // tolerated max offset right after sync
  double tol_at_5;   // tolerated max offset 5 s later
};

class SyncAlgoTest : public ::testing::TestWithParam<std::tuple<Case, std::pair<int, int>>> {};

TEST_P(SyncAlgoTest, GlobalClocksAgree) {
  const auto& [c, shape] = GetParam();
  const auto r0 = residuals(c.label, shape.first, shape.second, 0.0, 42);
  EXPECT_LT(max_abs(r0), c.tol_at_0) << c.label << " right after sync";
  const auto r5 = residuals(c.label, shape.first, shape.second, 5.0, 42);
  EXPECT_LT(max_abs(r5), c.tol_at_5) << c.label << " 5 s after sync";
}

// <label>_<nodes>x<cores>, with the label's separators as underscores.
std::string case_name(const ::testing::TestParamInfo<SyncAlgoTest::ParamType>& info) {
  const auto& [c, shape] = info.param;
  std::string name = c.label;
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return name + "_" + std::to_string(shape.first) + "x" + std::to_string(shape.second);
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, SyncAlgoTest,
    ::testing::Combine(
        ::testing::Values(
            Case{"hca3/recompute_intercept/100/skampi_offset/20", 2e-6, 60e-6},
            Case{"hca3/100/skampi_offset/20", 3e-6, 60e-6},
            Case{"hca2/recompute_intercept/100/skampi_offset/20", 3e-6, 80e-6},
            Case{"hca/100/skampi_offset/20", 3e-6, 80e-6},
            Case{"jk/100/skampi_offset/10", 3e-6, 100e-6},
            Case{"jk/100/mean_rtt_offset/10", 5e-6, 120e-6},
            Case{"top/hca3/100/skampi_offset/20/bottom/clockpropagation", 2e-6, 60e-6},
            Case{"top/hca3/recompute_intercept/100/skampi_offset/20/bottom/"
                 "hca3/recompute_intercept/50/skampi_offset/10",
                 3e-6, 120e-6}),
        ::testing::Values(std::pair<int, int>{4, 4}, std::pair<int, int>{3, 5},
                          std::pair<int, int>{8, 2})),
    case_name);

TEST(SyncAlgorithms, SingleRankIsIdentity) {
  simmpi::World w(machine(1, 1), 3);
  vclock::ClockPtr out;
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto sync = make_sync("hca3/10/skampi_offset/5");
    out = co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
  });
  ASSERT_TRUE(out != nullptr);
  // Identity wrapper over the base clock.
  EXPECT_DOUBLE_EQ(out->at_exact(1.0), w.base_clock(0)->at_exact(1.0));
}

TEST(SyncAlgorithms, TwoRanks) {
  const auto r = residuals("hca3/50/skampi_offset/20", 2, 1, 0.0, 9);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_LT(std::abs(r[0]), 2e-6);
}

TEST(SyncAlgorithms, Hca3BeatsNoSyncByOrdersOfMagnitude) {
  // Baseline: raw clocks disagree by milliseconds (initial offsets).
  simmpi::World w(machine(4, 2), 11);
  const double raw =
      std::abs(w.base_clock(0)->at_exact(1.0) - w.base_clock(4 * 2 - 1)->at_exact(1.0));
  const auto synced = residuals("hca3/100/skampi_offset/20", 4, 2, 0.0, 11);
  EXPECT_GT(raw, 1e-4);
  EXPECT_LT(max_abs(synced), raw / 100.0);
}

TEST(SyncAlgorithms, RecomputeInterceptImprovesHca2) {
  // Property from the paper: re-anchoring the intercept after the fit should
  // not hurt, and usually helps, the immediate accuracy.  Compare averages
  // over several seeds to keep the test robust.
  double with = 0, without = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    with += max_abs(residuals("hca2/recompute_intercept/50/skampi_offset/10", 4, 2, 0.0, seed));
    without += max_abs(residuals("hca2/50/skampi_offset/10", 4, 2, 0.0, seed));
  }
  EXPECT_LT(with, without * 1.5);  // at minimum: not catastrophically worse
}

TEST(SyncAlgorithms, JkDurationGrowsLinearlyHca3Logarithmically) {
  auto duration = [&](const std::string& label, int nodes) {
    simmpi::World w(machine(nodes, 1), 5);
    sim::Time end = 0;
    w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
      auto sync = make_sync(label);
      (void)co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
      end = std::max(end, ctx.sim().now());
    });
    return end;
  };
  const double jk8 = duration("jk/20/skampi_offset/10", 8);
  const double jk16 = duration("jk/20/skampi_offset/10", 16);
  const double hca3_8 = duration("hca3/20/skampi_offset/10", 8);
  const double hca3_16 = duration("hca3/20/skampi_offset/10", 16);
  EXPECT_NEAR(jk16 / jk8, 16.0 / 8.0, 0.4);        // O(p)
  EXPECT_NEAR(hca3_16 / hca3_8, 4.0 / 3.0, 0.35);  // O(log p)
  EXPECT_LT(hca3_16, jk16);
}

}  // namespace
}  // namespace hcs::clocksync
