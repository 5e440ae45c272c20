// Statistical helpers for acceptance tests: nearest-rank percentiles, a
// parallel seed sweep, and a sequential (confidence-interval) stopping rule
// for adaptive sweeps.  Header-only and independent of the bench helpers so
// sanitizer CI configurations that build with HCS_BUILD_BENCH=OFF can still
// compile every test that uses it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "runner/trial_runner.hpp"

namespace hcs::teststats {

/// Nearest-rank percentile of a non-empty sample, pct in [0, 100].  Exact
/// sample values only (no interpolation), so bounds calibrated against it
/// are stable under small sample-size changes.
inline double percentile(std::vector<double> xs, double pct) {
  if (xs.empty()) throw std::invalid_argument("percentile: empty sample");
  if (pct < 0.0 || pct > 100.0) throw std::invalid_argument("percentile: pct not in [0, 100]");
  std::sort(xs.begin(), xs.end());
  const auto n = xs.size();
  auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return xs[rank - 1];
}

/// Nearest-rank median (the lower-middle element for even sample sizes).
inline double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

/// Runs metric(seed) for seeds base_seed + [0, nseeds) across worker threads
/// and returns the values in seed order.  Deterministic for any job count
/// (runner::TrialRunner semantics); metric must touch only per-trial state.
template <typename Fn>
std::vector<double> seed_sweep(int nseeds, std::uint64_t base_seed, int jobs, Fn&& metric) {
  runner::TrialRunner pool(jobs);
  return pool.map(nseeds, base_seed,
                  [&](const runner::Trial& trial) { return metric(trial.seed); });
}

// ---------------------------------------------------------------------------
// Sequential stopping rule (Hunold & Carpen-Amarie, "MPI Benchmarking
// Revisited"): instead of always burning a fixed 20 seeds, run batches until
// the Student-t confidence interval of the mean of the checked statistic is
// tight enough relative to the mean, or a hard cap (policy.max_seeds,
// default the historical 20) is reached.

struct SweepPolicy {
  int min_seeds = 5;   // seeds in the first batch, before any CI check
  int batch = 5;       // seeds added per subsequent round
  int max_seeds = 20;  // hard cap
  double confidence = 0.95;     // two-sided Student-t confidence level (0.95 or 0.99)
  double rel_halfwidth = 0.05;  // stop once halfwidth <= rel_halfwidth * |mean|
};

/// Two-sided Student-t critical value for `df` degrees of freedom at the
/// 0.95 or 0.99 confidence level (nearest tabulated df at or above; normal
/// asymptote past df 120).  Other levels throw std::invalid_argument.
inline double student_t_critical(int df, double confidence) {
  if (df < 1) throw std::invalid_argument("student_t_critical: df must be >= 1");
  const bool p95 = confidence == 0.95;
  if (!p95 && confidence != 0.99) {
    throw std::invalid_argument("student_t_critical: only 0.95 and 0.99 are tabulated");
  }
  struct Row {
    int df;
    double t95;
    double t99;
  };
  static constexpr Row kTable[] = {
      {1, 12.706, 63.657}, {2, 4.303, 9.925}, {3, 3.182, 5.841},  {4, 2.776, 4.604},
      {5, 2.571, 4.032},   {6, 2.447, 3.707}, {7, 2.365, 3.499},  {8, 2.306, 3.355},
      {9, 2.262, 3.250},   {10, 2.228, 3.169}, {12, 2.179, 3.055}, {15, 2.131, 2.947},
      {20, 2.086, 2.845},  {30, 2.042, 2.750}, {60, 2.000, 2.660}, {120, 1.980, 2.617},
  };
  for (const Row& row : kTable) {
    if (df <= row.df) return p95 ? row.t95 : row.t99;
  }
  return p95 ? 1.960 : 2.576;
}

struct CiSummary {
  double mean = 0.0;
  double sd = 0.0;         // sample standard deviation (n - 1 denominator)
  double halfwidth = 0.0;  // t * sd / sqrt(n)
};

/// Student-t confidence interval of the mean; requires n >= 2.
inline CiSummary mean_ci(const std::vector<double>& xs, double confidence) {
  const auto n = xs.size();
  if (n < 2) throw std::invalid_argument("mean_ci: need at least 2 samples");
  CiSummary ci;
  for (const double x : xs) ci.mean += x;
  ci.mean /= static_cast<double>(n);
  double ss = 0.0;
  for (const double x : xs) ss += (x - ci.mean) * (x - ci.mean);
  ci.sd = std::sqrt(ss / static_cast<double>(n - 1));
  const double t = student_t_critical(static_cast<int>(n) - 1, confidence);
  ci.halfwidth = t * ci.sd / std::sqrt(static_cast<double>(n));
  return ci;
}

/// The pure stopping decision: true once the sample is at least min_seeds
/// long and the CI half-width is within rel_halfwidth of |mean| (a zero-mean
/// sample therefore stops only when its variance is exactly zero).
inline bool should_stop(const std::vector<double>& xs, const SweepPolicy& policy) {
  if (static_cast<int>(xs.size()) < std::max(policy.min_seeds, 2)) return false;
  const CiSummary ci = mean_ci(xs, policy.confidence);
  return ci.halfwidth <= policy.rel_halfwidth * std::abs(ci.mean);
}

/// seed_sweep with the sequential stopping rule: runs metric(seed) for seeds
/// base_seed + [0, n) in batches, stopping as soon as should_stop() holds or
/// policy.max_seeds is reached, and returns the values in
/// seed order.  Deterministic for any job count: batch boundaries and the
/// stopping decision depend only on the metric values, never on timing.
template <typename Fn>
std::vector<double> adaptive_seed_sweep(std::uint64_t base_seed, int jobs, Fn&& metric,
                                        SweepPolicy policy = {}) {
  const int cap = std::max(policy.max_seeds, 1);
  const int first = std::clamp(policy.min_seeds, 1, cap);
  const int step = std::max(policy.batch, 1);
  runner::TrialRunner pool(jobs);
  std::vector<double> xs;
  while (static_cast<int>(xs.size()) < cap) {
    const int have = static_cast<int>(xs.size());
    const int want = have == 0 ? first : std::min(have + step, cap);
    const std::vector<double> batch =
        pool.map(want - have, base_seed + static_cast<std::uint64_t>(have),
                 [&](const runner::Trial& trial) { return metric(trial.seed); });
    xs.insert(xs.end(), batch.begin(), batch.end());
    if (should_stop(xs, policy)) break;
  }
  return xs;
}

}  // namespace hcs::teststats
