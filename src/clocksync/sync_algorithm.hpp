// Clock synchronization algorithm interface.
//
// sync_clocks is a collective over the communicator: every member calls it
// with its current base clock (MPI_Wtime analogue, or an already-synchronized
// global clock when used inside HlHCA) and receives a logical, global clock.
// A ClockSync instance belongs to one rank (per-rank state such as the
// Mean-RTT cache lives in the owned OffsetAlgorithm).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "clocksync/offset.hpp"
#include "sim/task.hpp"
#include "simmpi/comm.hpp"
#include "vclock/clock.hpp"

namespace hcs::clocksync {

/// Tuning knobs shared by the algorithm family (paper §III-C3).
struct SyncConfig {
  int nfitpoints = 1000;           // fit points per linear regression
  bool recompute_intercept = false;  // re-measure the intercept after fitting
};

/// Per-rank health of one synchronization, ordered by severity.  kOk: every
/// measurement usable.  kDegraded: exchanges were lost or outliers rejected,
/// but enough points survived to fit a model.  kFailed: too few points — the
/// returned clock is a best-effort fallback, not a synchronized clock.
enum class SyncHealth : std::uint8_t { kOk = 0, kDegraded = 1, kFailed = 2 };

const char* to_string(SyncHealth health);

/// Measurement-quality report accumulated by one rank across the learn /
/// offset phases of a synchronization.  Under fault injection this is how a
/// sync reports degraded or failed ranks instead of hanging; fault-free the
/// report is all zeros with health == kOk.
struct SyncReport {
  SyncHealth health = SyncHealth::kOk;
  int points_requested = 0;  // fit points this rank asked for (client role)
  int points_used = 0;       // points that survived validity + outlier checks
  int points_invalid = 0;    // measurements whose burst lost every exchange
  int outliers_rejected = 0; // valid points rejected by the min-RTT filter
  int exchanges_lost = 0;    // ping-pong exchanges abandoned by the transport
  int retries = 0;           // timed-out exchange attempts that were retried

  bool clean() const noexcept { return health == SyncHealth::kOk; }

  /// Severity-max on health, sums elsewhere (used when a sync composes
  /// several learn phases, e.g. hierarchical levels).
  void merge(const SyncReport& other) {
    health = std::max(health, other.health);
    points_requested += other.points_requested;
    points_used += other.points_used;
    points_invalid += other.points_invalid;
    outliers_rejected += other.outliers_rejected;
    exchanges_lost += other.exchanges_lost;
    retries += other.retries;
  }
};

/// A synchronized clock plus this rank's measurement-quality report.  There
/// is no conversion to the clock: a caller names .clock, and hcs-lint's
/// ip-unchecked-sync-result flags a caller that never consults .report.
struct SyncResult {
  vclock::ClockPtr clock;
  SyncReport report;
};

class ClockSync {
 public:
  virtual ~ClockSync() = default;

  /// Collective: returns this rank's synchronized logical clock plus its
  /// health report.
  virtual sim::Task<SyncResult> sync_clocks(simmpi::Comm& comm, vclock::ClockPtr clk) = 0;

  /// Human-readable label, e.g. "hca3/recompute_intercept/1000/skampi_offset/100".
  virtual std::string name() const = 0;
};

/// Formats the canonical label for a flat algorithm.
std::string sync_label(const std::string& algo, const SyncConfig& cfg,
                       const OffsetAlgorithm& oalg);

}  // namespace hcs::clocksync
