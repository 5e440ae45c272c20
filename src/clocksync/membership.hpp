// Membership and re-admission under churn (docs/fault-injection.md).
//
// A churn plan (leave/join/rejoin faults) makes the set of live ranks a
// deterministic function of simulated time.  This module turns that oracle
// into a re-admission protocol: when a rank restarts, it does NOT trigger a
// full-world resynchronization — it re-runs exactly its own sub-phase of the
// HCA3 tree, a single pairwise LEARN_CLOCK_MODEL against its tree reference
// in the membership view at the restart instant.  The reference serves with
// its already-synchronized global clock, so the returning rank re-anchors to
// the cluster's logical time in one pairwise exchange.
//
// Everything here is a pure function of the fault plan: both the returning
// rank and its reference derive the rendezvous (who, when, which view) from
// the oracle without exchanging a message, which keeps churn runs
// bit-identical across --jobs/--shards just like crash runs.
#pragma once

#include <vector>

#include "clocksync/model_learning.hpp"
#include "clocksync/offset.hpp"
#include "clocksync/sync_algorithm.hpp"
#include "sim/task.hpp"
#include "simmpi/comm.hpp"

namespace hcs::clocksync {

/// The HCA3 binomial-tree reference of `rank` in a communicator of `nprocs`
/// members: the rank it learned its clock model from during sync_clocks
/// (clear the top bit for ranks >= 2^floor(log2 n), the lowest set bit
/// otherwise).  -1 for rank 0 (the root has no reference) and for trivial
/// communicators.
int hca3_parent(int rank, int nprocs);

/// One scheduled restart in the fault plan.
struct ReadmitEvent {
  sim::Time at = 0.0;   // restart instant (the rank's up_start)
  int rank = -1;        // world rank that (re)joins
  int incarnation = 0;  // incarnation index that begins at `at`
};

/// Every scheduled restart of the world's churn plan, sorted by (at, rank).
/// Pure function of the oracle — identical on every rank, no messages.
/// Empty when no churn plan is active.
std::vector<ReadmitEvent> readmit_schedule(simmpi::World& world);

/// World rank that serves `event`'s re-admission: the returning rank's HCA3
/// tree parent within the membership view at event.at (the lowest-ranked
/// other member when the returning rank is the view's rank 0).  -1 when the
/// view has no other member — the returning rank then has nobody to
/// re-anchor against and keeps its unsynchronized clock.
int readmit_reference(simmpi::World& world, const ReadmitEvent& event);

/// Re-admission tuning: a deliberately small fit compared to a full sync —
/// the whole point is that one returning rank costs one short pairwise
/// phase, not a world-wide re-run.
struct ReadmitPolicy {
  SyncConfig sync{/*nfitpoints=*/32, /*recompute_intercept=*/true};
};

/// The re-admission sub-phase itself.  Pairwise collective: called by the
/// returning rank (with its fresh base clock) and by
/// readmit_reference(event) (with its current global clock); no other rank
/// participates.  `view` must be the membership view communicator at
/// event.at on both sides (simmpi::Comm::view_comm).  Returns the newly
/// synchronized clock with the client-side quality report on the returning
/// rank, and `clk` unchanged with a clean report on the reference.  Emits a
/// "membership.readmit" trace span on both sides.
sim::Task<SyncResult> readmit(simmpi::Comm& view, ReadmitEvent event, vclock::ClockPtr clk,
                              OffsetAlgorithm& oalg, ReadmitPolicy policy);

}  // namespace hcs::clocksync
