// Message representation for the simulated MPI layer.
//
// Payloads carry doubles (every value the clock-sync stack exchanges is a
// timestamp or a model coefficient) plus a declared wire size in bytes so
// benchmark payloads of arbitrary size need not materialize contents.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace hcs::simmpi {

struct Message {
  int src = -1;              // world rank of the sender
  std::int64_t tag = 0;
  std::vector<double> data;
  std::int64_t bytes = 0;    // wire size used by the cost model
  sim::Time sent_at = 0.0;
  sim::Time arrived_at = 0.0;
  // Per-(src, dst) channel sequence number, assigned only while a fault
  // injector with network faults is active: duplicates and reorderings are
  // detected and repaired at the receiving mailbox (World::deliver_now).
  std::uint64_t seq = 0;
  // Membership view the message was sent under (fault plan epoch at
  // `sent_at`), stamped only while a churn plan is active.  Stale-view
  // messages — those whose endpoints changed incarnation in flight — are
  // rejected deterministically by FaultInjector::crash_delivered.
  std::uint64_t view = 0;
};

/// One ping-pong exchange as observed by the client process: its own send
/// and receive timestamps plus the reference's reply timestamp (which
/// travelled inside the reply message).  Values are clock readings of the
/// clocks the two sides passed to the burst, not true times.
struct PingSample {
  double client_send = 0.0;  // s_slast in the paper's Algorithm 7
  double ref_reply = 0.0;    // t_last
  double client_recv = 0.0;  // s_now
};

/// Result of one ping-pong burst.  Fault-free, samples.size() == requested;
/// under an active fault plan individual exchanges can be abandoned after
/// the retry budget (lost > 0), which the sync layer reports as degraded.
struct BurstResult {
  std::vector<PingSample> samples;
  int requested = 0;  // exchanges asked for
  int lost = 0;       // exchanges abandoned after the per-exchange retry budget
  int retries = 0;    // timed-out attempts that were retried
};

}  // namespace hcs::simmpi
