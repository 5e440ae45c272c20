// Hierarchical LogGP-style network model.
//
// Message delay depends on where source and destination sit in the topology
// (intra-socket < intra-node < inter-node).  Inter-node messages additionally
// serialize through per-node NIC egress/ingress resources; the queueing this
// produces under bursty traffic is what differentiates the barrier algorithms
// in the paper's Fig. 8 (DESIGN.md §4.5).  There is one NIC model, split in
// two halves: egress_to_wire (sender side: egress queue + wire) and
// ingress_admit (receiver side: ingress queue).  The World calls them from
// different places — the sender's shard and the window-boundary merge — and
// deliver_time simply chains them.
//
// With a fault::FaultInjector attached (see set_fault_injector), each
// delivery first consults the injector.  The reliable path (transit_time,
// and deliver_time on top of it) absorbs drops through one bounded
// retransmission loop — every lost attempt occupies the wire and NIC like a
// real send, the sender times out, and the final attempt is always
// delivered, so transport losses can never deadlock the MPI layer.  The
// ping-pong burst fast path resolves each direction once per burst
// (burst_leg: link level and channel stream) and delivers every exchange on
// it with deliver_leg, which bypasses the NICs and reports the raw fault
// decision to the caller; the caller implements its own timeout + retry
// (World::synthesize_burst).
//
// Deliveries are counted into the calling thread's active registry through
// trace::MetricHandle (net.* per link level, fault.net.retransmits), so on a
// sharded World they land in the registry of the shard doing the delivery.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_injector.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "topology/params.hpp"
#include "topology/topology.hpp"

namespace hcs::simmpi {

enum class LinkLevel { kIntraSocket, kIntraNode, kInterNode };

/// Per-delivery fault summary reported by transit_time when an injector is
/// active: how many retransmissions the reliable path needed, and whether
/// the delivered message should additionally be duplicated by the caller.
struct DeliveryFaults {
  int retransmits = 0;
  bool duplicate = false;
};

/// One direction of a ping-pong burst, resolved once by
/// NetworkModel::burst_leg: the link level and the channel's delay stream.
/// `rng` follows ChannelStreams' reference rule: valid until the next
/// stream lookup on `src`, which a burst's other leg never makes.
struct BurstLeg {
  int src = -1;
  int dst = -1;
  LinkLevel level = LinkLevel::kInterNode;
  sim::Rng* rng = nullptr;
};

class NetworkModel {
 public:
  /// Attempts per message on the reliable path: 1 original + kMaxRetransmits
  /// retries, the last of which is always delivered.
  static constexpr int kMaxRetransmits = 5;

  NetworkModel(const topology::ClusterTopology& topo, const topology::NetworkParams& params,
               std::uint64_t seed);

  LinkLevel classify(int src_rank, int dst_rank) const;

  const topology::LinkParams& link(LinkLevel level) const;

  /// Samples the one-way wire delay (no NIC queueing, no CPU overheads)
  /// from `rng`; the World's paths draw from the channel's own stream.
  sim::Time sample_delay(LinkLevel level, std::int64_t bytes, sim::Rng& rng);

  /// Full path: earliest arrival of a message handed to the network at
  /// `depart_ready` — transit_time, then ingress_admit for inter-node
  /// traffic.  Mutates NIC state.  `faults` as for transit_time.
  sim::Time deliver_time(int src_rank, int dst_rank, std::int64_t bytes, sim::Time depart_ready,
                         DeliveryFaults* faults = nullptr);

  /// Resolves the src -> dst direction of a ping-pong burst once: its link
  /// level and its channel's delay stream.
  BurstLeg burst_leg(int src_rank, int dst_rank);

  /// As deliver_time but without touching NIC state — the ping-pong burst
  /// fast path, whose pairwise traffic is modelled as uncontended.  When
  /// `decision` is non-null and an injector is active, the injector's
  /// verdict is written there (drop means the returned arrival time is moot
  /// and the caller must handle the loss itself).
  sim::Time deliver_leg(const BurstLeg& leg, std::int64_t bytes, sim::Time depart_ready,
                        fault::NetFaultDecision* decision = nullptr);

  /// Sender half of the split inter-node path used by the sharded engine:
  /// NIC egress serialization + wire delay, drawn from the sender's channel
  /// stream.  Returns the time the message reaches the destination NIC port
  /// (before ingress admission).  Only touches sender-side state, so shards
  /// may call it concurrently for disjoint senders.  When `decision` is
  /// non-null its factor/extra stretch the wire delay; a dropped message
  /// still occupies egress and the returned port time is where it was lost.
  sim::Time egress_to_wire(int src_rank, int dst_rank, std::int64_t bytes, sim::Time depart_ready,
                           const fault::NetFaultDecision* decision = nullptr);

  /// Receiver half: admits a message that reached `dst_rank`'s NIC port at
  /// `port_time`, serializing through ingress and recording the delivery
  /// metric against `depart_ready` (hand-off to arrival).  The World calls
  /// it in deterministic merge order at window boundaries.
  sim::Time ingress_admit(int dst_rank, std::int64_t bytes, sim::Time port_time,
                          sim::Time depart_ready);

  /// Reliable sender-side path: the bounded retransmission loop (each lost
  /// attempt occupies egress and the wire; the last attempt always survives
  /// the fabric).  An inter-node message stops at the destination NIC port
  /// (egress_to_wire), before ingress admission; any other arrives.  When
  /// `faults` is non-null and a fault injector is active, drops are absorbed
  /// by retransmission and the summary is written to *faults; a null
  /// `faults` runs fault-blind (the second copy of a duplicated message).
  sim::Time transit_time(int src_rank, int dst_rank, std::int64_t bytes, sim::Time depart_ready,
                         DeliveryFaults* faults = nullptr);

  double send_overhead() const { return params_.send_overhead; }
  double recv_overhead() const { return params_.recv_overhead; }

  /// Conservative-window lookahead for the sharded engine: every inter-node
  /// message handed to the network at time t reaches the destination NIC
  /// port no earlier than t + this bound (base latency; jitter/spikes/fault
  /// stretches only add).
  double min_inter_node_latency() const { return params_.inter_node.base_latency; }

  /// Expected (mean) one-way delay for `bytes`, used by latency estimators.
  double expected_delay(LinkLevel level, std::int64_t bytes) const;

  /// Sender-side timeout before a retransmission on the reliable path: a
  /// conservative multiple of the expected one-way delay.
  double retransmit_timeout(LinkLevel level, std::int64_t bytes) const;

  /// Attaches the World's fault injector (null detaches).  Without one, all
  /// paths behave exactly as the fault-free model.
  void set_fault_injector(fault::FaultInjector* injector) noexcept { injector_ = injector; }

 private:
  /// One delivery attempt that bypasses the NICs (intra-node, or the
  /// uncontended burst path), drawn from the channel stream `rng`;
  /// `decision` (nullable) scales/extends the sampled delay and, on drop,
  /// skips delivery accounting.
  sim::Time deliver_attempt(LinkLevel level, sim::Rng& rng, std::int64_t bytes,
                            sim::Time depart_ready, const fault::NetFaultDecision* decision);

  /// transit_time for an already classified (src, dst).
  sim::Time transit_time(LinkLevel level, int src_rank, int dst_rank, std::int64_t bytes,
                         sim::Time depart_ready, DeliveryFaults* faults);

  const topology::ClusterTopology* topo_;
  topology::NetworkParams params_;
  // Per-channel delay streams.  They make delays shard-count-invariant:
  // senders never migrate between shards (docs/parallel-simulation.md), and
  // a channel is only ever touched from its sender's shard, so no locking.
  sim::ChannelStreams channels_;
  std::vector<sim::Time> egress_free_;   // per node; sender-shard state
  std::vector<sim::Time> ingress_free_;  // per node; receiver-side state
  fault::FaultInjector* injector_ = nullptr;
};

}  // namespace hcs::simmpi
