#include "clocksync/model_learning.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "clocksync/fitting.hpp"
#include "trace/metrics.hpp"
#include "trace/span.hpp"

namespace hcs::clocksync {

namespace {

/// Classifies the learn outcome.  Outlier rejection alone (a few points at
/// most fault-free) does not degrade health; lost exchanges or unusable
/// measurements do, and fewer than two usable points means the fit failed.
SyncHealth classify_health(const SyncReport& r) {
  if (r.points_used < 2) return SyncHealth::kFailed;
  if (r.points_invalid > 0 || r.exchanges_lost > 0 ||
      r.outliers_rejected > r.points_requested / 4) {
    return SyncHealth::kDegraded;
  }
  return SyncHealth::kOk;
}

/// One measured offset and the tightest RTT of the burst that measured it.
struct FitPoint {
  double timestamp;
  double offset;
  double min_rtt;
};

/// Min-RTT outlier rejection: points measured through congestion windows or
/// rescued by retries have inflated, asymmetric RTTs.  Drops, in order, every
/// point whose minimum RTT exceeds twice the median of the per-point minima
/// (plus epsilon); fault-free that median sits just above the base latency
/// and nothing is dropped.  No-op below four points.  Returns the number
/// rejected.
std::size_t reject_min_rtt_outliers(std::vector<FitPoint>& points) {
  if (points.size() < 4) return 0;
  std::vector<double> rtts;
  rtts.reserve(points.size());
  for (const FitPoint& p : points) rtts.push_back(p.min_rtt);
  const auto mid = rtts.begin() + static_cast<std::ptrdiff_t>(rtts.size() / 2);
  std::nth_element(rtts.begin(), mid, rtts.end());
  const double threshold = 2.0 * *mid + 1e-9;
  return std::erase_if(points, [threshold](const FitPoint& p) { return p.min_rtt > threshold; });
}

/// The regression over the surviving points.  A plain function, so the x/y
/// arrays live on the stack rather than in learn_clock_model's frame.
FitResult fit_points(const std::vector<FitPoint>& points) {
  std::vector<double> timestamps;
  std::vector<double> offsets;
  timestamps.reserve(points.size());
  offsets.reserve(points.size());
  for (const FitPoint& p : points) {
    timestamps.push_back(p.timestamp);
    offsets.push_back(p.offset);
  }
  return fit_linear_model(timestamps, offsets);
}

}  // namespace

sim::Task<LearnResult> learn_clock_model(simmpi::Comm& comm, int p_ref, int other_rank,
                                         vclock::Clock& clk, OffsetAlgorithm& oalg,
                                         SyncConfig cfg) {
  const int me = comm.rank();
  HCS_TRACE_SCOPE(Sync, comm.my_world_rank(), "learn_clock_model",
                  comm.world_rank(me == p_ref ? other_rank : p_ref));
  LearnResult out;  // identity model; returned as-is on the reference side

  if (me == p_ref) {
    for (int idx = 0; idx < cfg.nfitpoints; ++idx) {
      // A client declared dead will never complete another burst; stop
      // serving it instead of burning a timeout per remaining fit point.
      if (comm.peer_status(other_rank) == simmpi::PeerStatus::kDead) co_return out;
      (void)co_await oalg.measure_offset(comm, clk, p_ref, other_rank);
    }
    if (cfg.recompute_intercept &&
        comm.peer_status(other_rank) != simmpi::PeerStatus::kDead) {
      (void)co_await oalg.measure_offset(comm, clk, p_ref, other_rank);
    }
    co_return out;
  }
  if (me != other_rank) {
    throw std::logic_error("learn_clock_model: called by a non-participating rank");
  }

  SyncReport& report = out.report;
  report.points_requested = cfg.nfitpoints;
  std::vector<FitPoint> points;
  points.reserve(static_cast<std::size_t>(cfg.nfitpoints));
  for (int idx = 0; idx < cfg.nfitpoints; ++idx) {
    // Dead reference: the remaining points can only come back invalid, so
    // charge them in one step and let the caller's healing logic take over.
    if (comm.peer_status(p_ref) == simmpi::PeerStatus::kDead) {
      report.points_invalid += cfg.nfitpoints - idx;
      break;
    }
    const ClockOffset o = co_await oalg.measure_offset(comm, clk, p_ref, other_rank);
    report.exchanges_lost += o.lost;
    report.retries += o.retries;
    if (!o.valid) {
      ++report.points_invalid;
      continue;
    }
    points.push_back({o.timestamp, o.offset, o.min_rtt});
  }

  report.outliers_rejected += static_cast<int>(reject_min_rtt_outliers(points));
  report.points_used = static_cast<int>(points.size());

  HCS_METRIC_ADD("sync.fit_points", report.points_used);
  if (report.outliers_rejected > 0) {
    HCS_METRIC_ADD("sync.fit_outliers_rejected", report.outliers_rejected);
  }
  if (report.points_used >= 2) {
    const FitResult fit = fit_points(points);
    out.model = fit.model;
    HCS_METRIC_OBSERVE_RAW("sync.fit_r2", fit.r2);
  } else {
    // Degenerate: a single usable point fixes only the offset; none at all
    // leaves the identity model (health kFailed either way).
    out.model.slope = 0.0;
    out.model.intercept = points.empty() ? 0.0 : points.front().offset;
  }
  if (cfg.recompute_intercept && comm.peer_status(p_ref) != simmpi::PeerStatus::kDead) {
    const ClockOffset o = co_await oalg.measure_offset(comm, clk, p_ref, other_rank);
    report.exchanges_lost += o.lost;
    report.retries += o.retries;
    if (o.valid) {
      out.model.intercept = out.model.slope * (-o.timestamp) + o.offset;
    } else {
      ++report.points_invalid;  // keep the fitted intercept
    }
  }
  report.health = classify_health(report);
  co_return out;
}

}  // namespace hcs::clocksync
