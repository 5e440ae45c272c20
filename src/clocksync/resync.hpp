// Periodic re-synchronization (extension; paper §II and §III-C2).
//
// The paper establishes that a linear clock model is only trustworthy for
// roughly 0-20 s and that trace-analysis tools therefore "have to
// re-synchronize clocks periodically".  ResyncManager packages that policy:
// an application calls tick() at natural collective points; whenever the
// configured interval has elapsed on the logical global clock, the inner
// synchronization algorithm is re-run and a fresh clock replaces the old
// one.  The decision is taken by rank 0 and broadcast so that all ranks
// re-synchronize together (a per-rank decision could deadlock the
// collective sync).
#pragma once

#include <memory>

#include "clocksync/sync_algorithm.hpp"

namespace hcs::clocksync {

class ResyncManager {
 public:
  /// `inner` performs each (re-)synchronization; `interval` is the logical
  /// time between re-syncs.  One manager per rank, as with ClockSync.
  ResyncManager(std::unique_ptr<ClockSync> inner, double interval);

  /// Collective: all ranks must call tick() at matching points.  Performs
  /// the initial synchronization on first call and a re-synchronization
  /// whenever rank 0's global clock passed the deadline.  Returns the
  /// SyncResult that produced the current global clock: this tick's when it
  /// re-synchronized (resyncs() went up), otherwise the earlier one again.
  sim::Task<SyncResult> tick(simmpi::Comm& comm, vclock::ClockPtr base);

  /// Adopts an externally produced result — e.g. a churn re-admission's
  /// pairwise sub-phase (clocksync/membership) — as the current global
  /// clock, with `deadline` the next re-sync due time on that clock.  A
  /// returning rank that adopted its re-admitted clock participates in the
  /// next tick()'s collective decision like everyone else, instead of
  /// forcing an initial synchronization the rest of the view would not
  /// expect.  Does not count as a resync.
  void adopt(SyncResult result, double deadline) {
    current_ = std::move(result);
    deadline_ = deadline;
  }

  /// Clock from the most recent (re-)synchronization; null before the
  /// first tick.
  const vclock::ClockPtr& clock() const { return current_.clock; }

  /// Number of synchronizations performed (including the initial one).
  int resyncs() const { return resyncs_; }

  double interval() const { return interval_; }

 private:
  std::unique_ptr<ClockSync> inner_;
  double interval_;
  double deadline_ = 0.0;  // on the current global clock
  SyncResult current_;
  int resyncs_ = 0;
};

}  // namespace hcs::clocksync
