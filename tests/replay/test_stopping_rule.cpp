// Unit tests for the sequential (confidence-interval) stopping rule in
// tests/support/stats.hpp: the Student-t table, the CI math, the pure
// stopping decision, and adaptive_seed_sweep() run against known
// deterministic "distributions" with expected stop counts.
#include <gtest/gtest.h>

#include <mutex>
#include <vector>

#include "support/stats.hpp"

namespace hcs::teststats {
namespace {

TEST(StudentT, TabulatedValues) {
  EXPECT_DOUBLE_EQ(student_t_critical(1, 0.95), 12.706);
  EXPECT_DOUBLE_EQ(student_t_critical(4, 0.95), 2.776);
  EXPECT_DOUBLE_EQ(student_t_critical(19, 0.95), 2.086);  // nearest df at or above
  EXPECT_DOUBLE_EQ(student_t_critical(1, 0.99), 63.657);
  EXPECT_DOUBLE_EQ(student_t_critical(10, 0.99), 3.169);
}

TEST(StudentT, AsymptoteBeyondTable) {
  EXPECT_DOUBLE_EQ(student_t_critical(1000, 0.95), 1.960);
  EXPECT_DOUBLE_EQ(student_t_critical(1000, 0.99), 2.576);
}

TEST(StudentT, Monotone) {
  // More degrees of freedom can only tighten the critical value.
  double prev = student_t_critical(1, 0.95);
  for (int df = 2; df <= 200; ++df) {
    const double t = student_t_critical(df, 0.95);
    EXPECT_LE(t, prev) << "df " << df;
    prev = t;
  }
}

TEST(StudentT, RejectsBadInputs) {
  EXPECT_THROW(student_t_critical(0, 0.95), std::invalid_argument);
  EXPECT_THROW(student_t_critical(5, 0.90), std::invalid_argument);
}

TEST(MeanCi, KnownSample) {
  // {1..5}: mean 3, sd sqrt(2.5); halfwidth = t(4) * sd / sqrt(5).
  const CiSummary ci = mean_ci({1.0, 2.0, 3.0, 4.0, 5.0}, 0.95);
  EXPECT_DOUBLE_EQ(ci.mean, 3.0);
  EXPECT_NEAR(ci.sd, 1.5811388300841898, 1e-12);
  EXPECT_NEAR(ci.halfwidth, 2.776 * ci.sd / std::sqrt(5.0), 1e-12);
}

TEST(MeanCi, RequiresTwoSamples) {
  EXPECT_THROW(mean_ci({}, 0.95), std::invalid_argument);
  EXPECT_THROW(mean_ci({1.0}, 0.95), std::invalid_argument);
}

TEST(ShouldStop, ConstantSampleStopsAtMinSeeds) {
  SweepPolicy policy;
  std::vector<double> xs(4, 7.5);
  EXPECT_FALSE(should_stop(xs, policy)) << "below min_seeds";
  xs.push_back(7.5);
  EXPECT_TRUE(should_stop(xs, policy)) << "zero variance is as tight as it gets";
}

TEST(ShouldStop, ZeroMeanNeedsZeroVariance) {
  SweepPolicy policy;
  EXPECT_FALSE(should_stop({-1.0, 1.0, -1.0, 1.0, -1.0}, policy));
  EXPECT_TRUE(should_stop({0.0, 0.0, 0.0, 0.0, 0.0}, policy));
}

TEST(ShouldStop, WideSampleKeepsGoing) {
  SweepPolicy policy;
  EXPECT_FALSE(should_stop({0.0, 100.0, 0.0, 100.0, 0.0, 100.0}, policy));
}

// --- adaptive_seed_sweep against known distributions -----------------------

TEST(AdaptiveSweep, ConstantMetricStopsAtFirstBatch) {
  const std::vector<double> xs =
      adaptive_seed_sweep(100, /*jobs=*/1, [](std::uint64_t) { return 3.25; });
  EXPECT_EQ(xs.size(), 5u);  // default min_seeds
  for (const double x : xs) EXPECT_DOUBLE_EQ(x, 3.25);
}

TEST(AdaptiveSweep, HighVarianceMetricRunsToCap) {
  // Alternating 0/100 never yields a tight CI: all max_seeds seeds burn.
  const std::vector<double> xs = adaptive_seed_sweep(
      100, /*jobs=*/1, [](std::uint64_t seed) { return (seed % 2 == 0) ? 0.0 : 100.0; });
  EXPECT_EQ(xs.size(), 20u);  // default max_seeds
}

TEST(AdaptiveSweep, ConvergingMetricStopsMidway) {
  // First batch is wide (80/120 alternating: CI half-width ~28% of the mean),
  // later seeds sit on the mean; with a 15% target the second batch settles
  // it: expected stop count 10.
  SweepPolicy policy;
  policy.rel_halfwidth = 0.15;
  const auto metric = [](std::uint64_t seed) {
    if (seed < 105) return (seed % 2 == 0) ? 80.0 : 120.0;
    return 96.0;
  };
  const std::vector<double> xs = adaptive_seed_sweep(100, /*jobs=*/1, metric, policy);
  EXPECT_EQ(xs.size(), 10u);
}

TEST(AdaptiveSweep, SeedsAreContiguousFromBase) {
  std::vector<std::uint64_t> seen;
  const std::vector<double> xs = adaptive_seed_sweep(40, /*jobs=*/1, [&](std::uint64_t seed) {
    seen.push_back(seed);
    return (seed % 2 == 0) ? 0.0 : 100.0;  // forces a full run to the cap
  });
  ASSERT_EQ(seen.size(), 20u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], 40u + i);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_DOUBLE_EQ(xs[i], (seen[i] % 2 == 0) ? 0.0 : 100.0);
  }
}

TEST(AdaptiveSweep, DeterministicAcrossJobs) {
  const auto metric = [](std::uint64_t seed) {
    return static_cast<double>((seed * 2654435761u) % 97);
  };
  const std::vector<double> sequential = adaptive_seed_sweep(7, /*jobs=*/1, metric);
  const std::vector<double> parallel = adaptive_seed_sweep(7, /*jobs=*/4, metric);
  EXPECT_EQ(sequential, parallel);
}

}  // namespace
}  // namespace hcs::teststats
