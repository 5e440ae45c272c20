// Crash-stop failure model: detection and the per-peer status view.
//
// A `crash:rank=<r>,at=<t>` fault kills rank r at simulated time t: the rank
// stops scheduling at its next transport operation (RankCrashed unwinds its
// program), and every message of the crash era is dropped by one uniform
// rule — a message exists only if it *arrives* while its source and
// destination are alive and the link between them is up.  `crashlink`
// severs one link the same way without killing either endpoint.
//
// Detection is modelled, not simulated message-by-message: flooding the
// schedule with heartbeat probes would perturb the very timing the
// simulator exists to measure.  Instead the FailureDetector plays the role
// of a per-rank heartbeat daemon with exponential backoff: after a peer's
// failure event E, the observer misses probes at E + P, E + 3P, E + 7P, ...
// (period P doubling after each miss) and declares the peer dead after
// kProbeMisses consecutive misses, i.e. at E + P * (2^kProbeMisses - 1).
// P derives from the machine's small-message inter-node round-trip, so the
// latency scales with the network like a real detector's would.  Because
// both the failure plan and the network model are per-World deterministic,
// every rank's status() view is a pure function of (observer, peer, now) —
// which is what lets collectives bound their receives without agreement
// rounds, and keeps crash runs byte-identical for any --jobs value.
#pragma once

#include "fault/fault_injector.hpp"
#include "sim/time.hpp"

namespace hcs::simmpi {

class NetworkModel;

/// Observer-side view of a peer.  kSuspected covers the window between the
/// first missed heartbeat and the declaration; algorithms that must not
/// abandon a slow peer treat only kDead as actionable.  kRecovered means a
/// previously-departed peer answered a heartbeat again (its rejoin became
/// visible one probe period after the restart — symmetric to suspicion);
/// it stays kRecovered until the next failure window, so membership layers
/// can distinguish "never left" from "needs re-admission".
enum class PeerStatus { kAlive, kSuspected, kDead, kRecovered };

const char* to_string(PeerStatus status);

/// Thrown inside a rank program when the crash-stop model kills the calling
/// rank: every transport operation checks on entry (and after resuming), so
/// a crashed rank unwinds cleanly at its next interaction with the world.
/// World::launch catches it per rank; it never escapes World::run.
struct RankCrashed {
  int rank = -1;
  sim::Time at = 0.0;
};

/// Ultimate liveness net for bounded receives under a crash plan: even a
/// pathological membership race between two *live* ranks (e.g. a crash
/// landing in the middle of a communicator split's member exchange)
/// terminates as a degraded receive instead of deadlocking the world.
/// Far beyond any legitimate wait in the implemented workloads (the longest
/// horizon, Fig. 2 drift, is 500 simulated seconds).
inline constexpr sim::Time kLivenessTimeout = 600.0;

class FailureDetector {
 public:
  /// Consecutive missed probes before a peer is declared dead.
  static constexpr int kProbeMisses = 3;

  FailureDetector(const fault::FaultInjector& injector, const NetworkModel& net);

  /// Begin of the dead-declaration window containing `now`, or of the next
  /// one after it (sim::kTimeInfinity when `observer` will never declare
  /// `peer` dead again).  For a single-failure plan this is, at every
  /// instant, the failure event `observer` perceives (the peer's crash or
  /// the cut of their link, whichever is earlier) plus detection_latency().
  sim::Time detect_time_after(int observer, int peer, sim::Time now) const noexcept;

  /// Pure per-peer status at `now`: walks the peer's down intervals so a
  /// restart transitions dead -> recovered one probe period after the
  /// rejoin, and a later departure re-enters suspected/dead.
  PeerStatus status(int observer, int peer, sim::Time now) const noexcept;

  /// True once some crash or link cut has fired.  Before this instant no
  /// observer can perceive a failure, so cooperative recovery phases (which
  /// exchange real messages) can be skipped without perturbing the
  /// fault-free network schedule — an armed-but-unfired crash plan stays
  /// bit-identical to no plan.
  bool any_event_fired(sim::Time now) const noexcept { return now >= first_event_; }

  /// Base heartbeat period P (doubles after each miss).
  double probe_period() const noexcept { return probe_period_; }

  /// Total modelled detection latency P * (2^kProbeMisses - 1).
  double detection_latency() const noexcept { return detection_latency_; }

 private:
  const fault::FaultInjector* injector_;
  double probe_period_;
  double detection_latency_;
  sim::Time first_event_;  // FaultInjector::first_failure_time()
};

}  // namespace hcs::simmpi
