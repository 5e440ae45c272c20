// Statistical acceptance tests: each synchronization algorithm, run
// fault-free over many seeds, must keep its median and p95 clock error
// within calibrated bounds.  An accuracy regression then fails ctest
// instead of only shifting bench output.
//
// The bounds were calibrated empirically on the seed configuration (20
// seeds, testbox 4x2, noiseless clock probes) and carry roughly 3x headroom
// over the observed values, so they catch order-of-magnitude regressions,
// not run-to-run noise.  SKaMPI's offset-only sync has no drift model; its
// 10 s bound is the skew envelope (up to ~2 ppm x 10 s per rank pair), which
// is exactly the degradation the HCA family exists to remove.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <iostream>
#include <mutex>
#include <string>
#include <vector>

#include "clocksync/factory.hpp"
#include "sim/rng.hpp"
#include "simmpi/world.hpp"
#include "support/stats.hpp"
#include "topology/presets.hpp"
#include "vclock/global_clock.hpp"

namespace hcs::clocksync {
namespace {

constexpr std::uint64_t kBaseSeed = 1000;

// Sequential stopping rule (tests/support/stats.hpp): sweep seeds until the
// 95% CI on the 10 s-horizon error is within 25% of its mean, at least 10
// and at most 20 seeds (the historical fixed count).
teststats::SweepPolicy sweep_policy() {
  teststats::SweepPolicy policy;
  policy.min_seeds = 10;
  policy.batch = 5;
  policy.max_seeds = 20;
  policy.rel_halfwidth = 0.25;
  return policy;
}

topology::MachineConfig machine() {
  auto m = topology::testbox(4, 2);  // 8 ranks, 2 per node
  m.clocks.initial_offset_abs = 5e-3;
  m.clocks.base_skew_abs = 2e-6;
  m.clocks.skew_walk_sd = 0.005e-6;
  return m;
}

/// One fault-free run of `label`: the maximum absolute deviation from rank
/// 0's global clock right after sync and `probe_after` seconds later
/// (noiseless clock evaluation), plus how many ranks reported a non-clean
/// sync (must be zero fault-free).
struct SweepPoint {
  double err_t0 = 0.0;
  double err_t1 = 0.0;
  int unhealthy_ranks = 0;
};

SweepPoint run_one(const std::string& label, double probe_after, std::uint64_t seed) {
  simmpi::World w(machine(), seed);
  const int p = w.size();
  std::vector<SyncResult> results(static_cast<std::size_t>(p));
  sim::Time sync_end = 0.0;
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto sync = make_sync(label);
    results[static_cast<std::size_t>(ctx.rank())] =
        co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
    sync_end = std::max(sync_end, ctx.sim().now());
  });
  SweepPoint point;
  for (const SyncResult& res : results) {
    if (!res.report.clean()) ++point.unhealthy_ranks;
  }
  const double ref0 = results[0].clock->at_exact(sync_end);
  const double ref1 = results[0].clock->at_exact(sync_end + probe_after);
  for (int r = 1; r < p; ++r) {
    const auto& clk = *results[static_cast<std::size_t>(r)].clock;
    point.err_t0 = std::max(point.err_t0, std::abs(clk.at_exact(sync_end) - ref0));
    point.err_t1 = std::max(point.err_t1, std::abs(clk.at_exact(sync_end + probe_after) - ref1));
  }
  return point;
}

struct Bounds {
  const char* label;
  double median_t0, p95_t0;  // seconds, right after sync
  double median_t1, p95_t1;  // seconds, 10 s after sync
};

// probe_after = 10 s for every row (the paper's Fig. 3 horizon).
// Paper-sized fit windows (nfitpoints = 1000): the slope error of a linear
// fit shrinks with the time span it covers, so short toy windows would
// drown the HCA family's drift model in fit noise at the 10 s horizon.
// Observed on the seed configuration (see the [bounds] log lines):
//   hca    0.013 / 0.024 / 1.07 / 1.77 us      jk      0.007 / 0.015 / 0.30 / 0.54 us
//   hca2   0.006 / 0.009 / 1.08 / 1.78 us      skampi  0.009 / 0.013 / 22.5 / 28.2 us
//   hca3   0.002 / 0.004 / 1.05 / 1.80 us      hlhca   0.002 / 0.004 / 0.98 / 1.65 us
constexpr Bounds kBounds[] = {
    {"hca/1000/skampi_offset/10", 0.05e-6, 0.08e-6, 3.5e-6, 6e-6},
    {"hca2/1000/skampi_offset/10", 0.02e-6, 0.03e-6, 3.5e-6, 6e-6},
    {"hca3/1000/skampi_offset/10", 0.01e-6, 0.015e-6, 3.5e-6, 6e-6},
    {"jk/1000/skampi_offset/20", 0.025e-6, 0.05e-6, 1e-6, 2e-6},
    {"skampi/skampi_offset/100", 0.03e-6, 0.05e-6, 60e-6, 80e-6},
    {"top/hca3/1000/skampi_offset/10/bottom/hca3/1000/skampi_offset/10", 0.01e-6, 0.015e-6,
     3.5e-6, 6e-6},
};

class AccuracyBounds : public ::testing::TestWithParam<Bounds> {};

TEST_P(AccuracyBounds, MedianAndP95WithinCalibratedBounds) {
  const Bounds& b = GetParam();
  // gtest assertions are not thread-safe, so the parallel sweep only
  // collects; every check happens here on the main thread.  The adaptive
  // sweep stops on the t10 error's CI (the binding statistic); side data is
  // stashed per seed under a lock because trials run concurrently.
  std::mutex mu;
  std::vector<SweepPoint> points_by_seed;
  const std::vector<double> t1s =
      teststats::adaptive_seed_sweep(kBaseSeed, /*jobs=*/0, [&](std::uint64_t seed) {
        const SweepPoint point = run_one(b.label, 10.0, seed);
        const std::lock_guard<std::mutex> lock(mu);
        const auto index = static_cast<std::size_t>(seed - kBaseSeed);
        if (points_by_seed.size() <= index) points_by_seed.resize(index + 1);
        points_by_seed[index] = point;
        return point.err_t1;
      }, sweep_policy());

  const std::size_t nseeds = t1s.size();
  ASSERT_EQ(points_by_seed.size(), nseeds);
  std::vector<double> t0s;
  int unhealthy = 0;
  for (const SweepPoint& p : points_by_seed) {
    t0s.push_back(p.err_t0);
    unhealthy += p.unhealthy_ranks;
  }
  EXPECT_EQ(unhealthy, 0) << "fault-free sync reported degraded/failed ranks";

  const double med_t0 = teststats::median(t0s);
  const double p95_t0 = teststats::percentile(t0s, 95.0);
  const double med_t1 = teststats::median(t1s);
  const double p95_t1 = teststats::percentile(t1s, 95.0);
  // Logged so recalibration after an intentional accuracy change is a
  // matter of reading the last green run, not re-deriving the sweep.
  std::cout << "[bounds] " << b.label << ": median_t0=" << med_t0 * 1e6
            << "us p95_t0=" << p95_t0 * 1e6 << "us median_t10=" << med_t1 * 1e6
            << "us p95_t10=" << p95_t1 * 1e6 << "us over " << nseeds << " seeds\n";

  EXPECT_LT(med_t0, b.median_t0) << b.label << ": median error right after sync regressed";
  EXPECT_LT(p95_t0, b.p95_t0) << b.label << ": p95 error right after sync regressed";
  EXPECT_LT(med_t1, b.median_t1) << b.label << ": median error 10 s after sync regressed";
  EXPECT_LT(p95_t1, b.p95_t1) << b.label << ": p95 error 10 s after sync regressed";
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AccuracyBounds, ::testing::ValuesIn(kBounds),
                         [](const ::testing::TestParamInfo<Bounds>& info) {
                           std::string name = info.param.label;
                           std::replace_if(
                               name.begin(), name.end(),
                               [](char c) { return !std::isalnum(static_cast<unsigned char>(c)); },
                               '_');
                           return name;
                         });

// The helpers backing the bounds above.
TEST(TestStats, NearestRankPercentile) {
  const std::vector<double> xs = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(teststats::percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(teststats::percentile(xs, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(teststats::percentile(xs, 95.0), 5.0);
  EXPECT_DOUBLE_EQ(teststats::percentile(xs, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(teststats::median({1, 2, 3, 4}), 2.0);  // lower-middle, by convention
  EXPECT_THROW(teststats::percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW(teststats::percentile(xs, 101.0), std::invalid_argument);
}

TEST(TestStats, SeedSweepIsDeterministicAcrossJobCounts) {
  const auto metric = [](std::uint64_t seed) {
    sim::Rng rng(seed);
    return rng.uniform();
  };
  const std::vector<double> serial = teststats::seed_sweep(16, 42, 1, metric);
  const std::vector<double> parallel = teststats::seed_sweep(16, 42, 4, metric);
  ASSERT_EQ(serial.size(), 16u);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace hcs::clocksync
