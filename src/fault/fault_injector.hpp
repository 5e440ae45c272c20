// Per-World instantiation of a FaultPlan.
//
// The injector owns RNG streams derived from (world seed, plan seed) that
// are completely separate from the network / clock RNGs: consulting the
// injector never perturbs the fault-free random sequences, so a plan whose
// probabilities are all zero produces bit-identical results to no plan at
// all (tested in tests/fault/test_fault_injector.cpp).  Fault randomness is
// keyed per (src, dst) channel — like NetworkModel's delay streams — so the
// verdict for a message depends only on its channel's draw history, which
// follows the sender's timeline.  That makes fault decisions invariant under
// World sharding (docs/parallel-simulation.md); a channel is only consulted
// from its sender's shard, so the streams need no locking.
//
// Network faults are evaluated per message via on_message(); pause windows
// translate timestamps via release_time(); clock faults are applied once by
// the World at construction.  Fault firings are counted only into the
// calling thread's active MetricsRegistry (fault.*, through
// trace::MetricHandle, like NetworkModel): on a sharded World, the registry
// of the shard that consulted the injector.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_plan.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace hcs::fault {

/// Verdict for one message hand-off.  `drop` loses the attempt, `duplicate`
/// delivers a second copy, `delay_factor` scales the sampled wire delay and
/// `extra_delay` is added on top (congestion burst / reorder latency).
struct NetFaultDecision {
  bool drop = false;
  bool duplicate = false;
  double extra_delay = 0.0;
  double delay_factor = 1.0;
};

/// One clock fault resolved against a concrete rank (applied by the World
/// to the rank's time source at construction).
struct ClockFault {
  FaultKind kind = FaultKind::kClockStep;  // kClockStep or kFreqJump
  int rank = -1;
  sim::Time at = 0.0;
  double delta = 0.0;  // step seconds, or skew delta (ppm * 1e-6)
};

class FaultInjector {
 public:
  /// `seed` individualizes this World's fault streams (derive it from the
  /// World's own seed so parallel trials stay reproducible); `nranks` is
  /// used to validate rank-targeted specs eagerly.
  FaultInjector(const FaultPlan& plan, std::uint64_t seed, int nranks);

  /// True when any network-level fault (drop/duplicate/reorder/burst/
  /// straggler) is configured — the transport enables sequence tracking,
  /// retransmission and burst retries only then.
  bool net_active() const noexcept { return net_active_; }

  /// True when any pause window is configured.
  bool pause_active() const noexcept { return !pauses_.empty(); }

  /// True when any crash, crashlink or churn fault is configured — the
  /// transport and collectives enable the failure-detection paths only
  /// then, so a crash-free plan stays bit-identical to no plan at all.
  bool crash_active() const noexcept { return crash_active_; }

  /// True when any leave/join/rejoin fault is configured: some rank's
  /// lifetime has more than the single crash-stop incarnation, so the
  /// World runs churn supervisors and stamps membership views.
  bool churn_active() const noexcept { return churn_active_; }

  /// True when `rank` is targeted by a leave/join/rejoin spec.
  bool has_churn(int rank) const noexcept {
    return rank >= 0 && rank < static_cast<int>(churn_ranks_.size()) &&
           churn_ranks_[static_cast<std::size_t>(rank)];
  }

  /// First down time for `rank` (crash, leave, or an initial join gap),
  /// or sim::kTimeInfinity if it never goes down.  For pure crash plans
  /// this is the crash-stop instant.
  sim::Time crash_time(int rank) const noexcept {
    return rank >= 0 && rank < static_cast<int>(crash_times_.size())
               ? crash_times_[static_cast<std::size_t>(rank)]
               : sim::kTimeInfinity;
  }

  /// True when `rank` is down (crashed, departed, or not yet joined) at `t`.
  bool is_down(int rank, sim::Time t) const noexcept;

  /// Begin of the down interval covering `t`, or of the next one after
  /// `t`; sim::kTimeInfinity when the rank never goes down again.  For a
  /// single-interval (pure crash) plan this equals crash_time(rank) at
  /// every instant, so crash-only call sites keep their exact deadlines.
  sim::Time next_down(int rank, sim::Time t) const noexcept;

  /// Incarnation of `rank` at `t`: the number of completed down intervals
  /// before or at `t`, so every restart bumps it by one.  Messages are
  /// delivered only within a single incarnation of both endpoints.
  int incarnation(int rank, sim::Time t) const noexcept;

  /// Number of up-periods in the plan for `rank` (1 when it never churns;
  /// a trailing unfinished crash still counts its never-starting slot).
  int incarnation_count(int rank) const noexcept;

  /// Start of incarnation `k` of `rank`: 0 for k = 0, else the end of down
  /// interval k-1 (sim::kTimeInfinity when that interval never ends).
  sim::Time up_start(int rank, int k) const noexcept;

  /// End of incarnation `k` (the begin of down interval k), or
  /// sim::kTimeInfinity when the incarnation runs forever.
  sim::Time up_end(int rank, int k) const noexcept;

  /// Membership epoch at `t`: the number of membership transitions (rank
  /// departures and arrivals) that fired at or before `t`.  Epoch 0 is the
  /// initial view; ranks that start down (join) belong to epoch 0's
  /// complement, not to a transition.
  std::uint64_t membership_epoch(sim::Time t) const noexcept;

  /// Time from which the a<->b link is severed (crashlink), or
  /// sim::kTimeInfinity if that link never goes down.  Symmetric.
  sim::Time link_down_time(int a, int b) const noexcept;

  /// Uniform crash-era delivery rule: a message sent src->dst exists only
  /// if it arrives while both endpoints are up and the link is up, and —
  /// under churn — both endpoints are still in the same incarnation they
  /// were in at `send` (a message from or to a previous life is stale and
  /// dropped deterministically).
  bool crash_delivered(int src, int dst, sim::Time send, sim::Time arrive) const noexcept;

  /// Liveness horizon of the a<->b pair from `t0`: the earliest of
  /// next_down(a, t0), next_down(b, t0) and link_down_time(a, b).  Before
  /// it, no down interval of either rank begins or ends and the link is
  /// intact, so crash_delivered holds for every message between them sent
  /// at or after `t0` that arrives (no earlier than it is sent) before the
  /// horizon.  A rank already down at `t0` puts the horizon at or before
  /// `t0`.
  sim::Time live_until(int a, int b, sim::Time t0) const noexcept;

  /// Earliest failure event of the plan: the first down time of any rank
  /// or the first link cut (sim::kTimeInfinity if there is none).
  sim::Time first_failure_time() const noexcept;

  /// Counts one message lost to a crash/crashlink (fault.crash.drops).
  void count_crash_drop();

  /// Evaluates all network faults for one message hand-off.  `level` is the
  /// simmpi::LinkLevel cast to int (NetLevel uses the same encoding).
  NetFaultDecision on_message(int src, int dst, int level, sim::Time now);

  /// Earliest time at or after `t` at which `rank` is outside every pause
  /// window (identity when no pause covers `t`).
  sim::Time release_time(int rank, sim::Time t) const;

  /// Clock faults resolved per rank, for the World to apply.
  const std::vector<ClockFault>& clock_faults() const noexcept { return clock_faults_; }

 private:
  struct ProbRule {
    NetLevel level;
    double p;
  };
  struct ReorderRule {
    NetLevel level;
    double p;
    double delay;
  };
  struct BurstRule {
    NetLevel level;
    double period;
    double duration;
    double phase;
    double mu;     // log-normal parameters chosen so the mean is spec.delay
    double sigma;
  };
  struct StragglerRule {
    int rank;
    double factor;
  };
  struct PauseRule {
    int rank;
    sim::Time begin;
    sim::Time end;
  };
  struct LinkCut {
    int a;  // a < b (endpoints normalised at construction)
    int b;
    sim::Time at;
  };
  /// One contiguous down period of a rank: [begin, end).  A crash or leave
  /// with no later rejoin has end = kTimeInfinity; a join contributes
  /// [0, at).  Sorted by begin, non-overlapping (built in the ctor).
  struct DownInterval {
    sim::Time begin;
    sim::Time end;
  };

  static bool matches(NetLevel rule_level, int level) {
    return rule_level == NetLevel::kAll || static_cast<int>(rule_level) == level;
  }

  sim::ChannelStreams channels_;  // per-channel fault streams
  std::vector<ProbRule> drops_rules_;
  std::vector<ProbRule> dup_rules_;
  std::vector<ReorderRule> reorder_rules_;
  std::vector<BurstRule> burst_rules_;
  std::vector<StragglerRule> straggler_rules_;
  std::vector<PauseRule> pauses_;
  std::vector<ClockFault> clock_faults_;
  std::vector<sim::Time> crash_times_;  // indexed by rank; first down begin
  std::vector<std::vector<DownInterval>> down_;  // indexed by rank
  std::vector<bool> churn_ranks_;                // indexed by rank
  std::vector<sim::Time> transitions_;  // sorted fired membership changes
  std::vector<LinkCut> link_cuts_;
  bool net_active_ = false;
  bool crash_active_ = false;
  bool churn_active_ = false;
};

}  // namespace hcs::fault
