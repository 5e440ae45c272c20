#include "simmpi/network.hpp"

#include <algorithm>

#include "trace/metrics.hpp"

namespace hcs::simmpi {

namespace {
// Per-delivery metrics, indexed by LinkLevel.
constinit trace::CounterHandle g_messages[3] = {
    trace::CounterHandle{"net.messages.intra_socket"},
    trace::CounterHandle{"net.messages.intra_node"},
    trace::CounterHandle{"net.messages.inter_node"}};
constinit trace::CounterHandle g_bytes[3] = {trace::CounterHandle{"net.bytes.intra_socket"},
                                             trace::CounterHandle{"net.bytes.intra_node"},
                                             trace::CounterHandle{"net.bytes.inter_node"}};
constinit trace::HistogramHandle g_delay[3] = {trace::HistogramHandle{"net.delay.intra_socket"},
                                               trace::HistogramHandle{"net.delay.intra_node"},
                                               trace::HistogramHandle{"net.delay.inter_node"}};
constinit trace::CounterHandle g_retransmits{"fault.net.retransmits"};

void count_delivery(LinkLevel level, std::int64_t bytes, sim::Time delay) {
  const auto l = static_cast<std::size_t>(level);
  trace::Counter* messages = g_messages[l].get();
  if (messages == nullptr) return;
  messages->inc();
  g_bytes[l].get()->inc(static_cast<std::uint64_t>(bytes));
  g_delay[l].get()->observe(delay);
}
}  // namespace

NetworkModel::NetworkModel(const topology::ClusterTopology& topo,
                           const topology::NetworkParams& params, std::uint64_t seed)
    : topo_(&topo),
      params_(params),
      channels_(seed ^ 0x6a09e667f3bcc909ULL, topo.total_ranks()),
      egress_free_(static_cast<std::size_t>(topo.nodes()), 0.0),
      ingress_free_(static_cast<std::size_t>(topo.nodes()), 0.0) {
  // Every metric exists in the registry active now, so a level this model
  // never uses still exports a zero row.
  for (std::size_t l = 0; l < 3; ++l) {
    g_messages[l].get();
    g_bytes[l].get();
    g_delay[l].get();
  }
  g_retransmits.get();
}

LinkLevel NetworkModel::classify(int src_rank, int dst_rank) const {
  const auto a = topo_->locate(src_rank);
  const auto b = topo_->locate(dst_rank);
  if (a.node != b.node) return LinkLevel::kInterNode;
  if (a.socket != b.socket) return LinkLevel::kIntraNode;
  return LinkLevel::kIntraSocket;
}

const topology::LinkParams& NetworkModel::link(LinkLevel level) const {
  switch (level) {
    case LinkLevel::kIntraSocket: return params_.intra_socket;
    case LinkLevel::kIntraNode: return params_.intra_node;
    case LinkLevel::kInterNode: return params_.inter_node;
  }
  return params_.inter_node;
}

sim::Time NetworkModel::sample_delay(LinkLevel level, std::int64_t bytes, sim::Rng& rng) {
  const topology::LinkParams& lp = link(level);
  sim::Time d = lp.base_latency + lp.per_byte * static_cast<double>(bytes);
  d += rng.exponential(lp.jitter_mean);
  if (lp.spike_prob > 0 && rng.bernoulli(lp.spike_prob)) {
    d += rng.exponential(lp.spike_mean);
  }
  return d;
}

double NetworkModel::expected_delay(LinkLevel level, std::int64_t bytes) const {
  const topology::LinkParams& lp = link(level);
  return lp.base_latency + lp.per_byte * static_cast<double>(bytes) + lp.jitter_mean +
         lp.spike_prob * lp.spike_mean;
}

double NetworkModel::retransmit_timeout(LinkLevel level, std::int64_t bytes) const {
  return 6.0 * expected_delay(level, bytes) + 2.0 * (params_.send_overhead + params_.recv_overhead);
}

sim::Time NetworkModel::deliver_attempt(LinkLevel level, sim::Rng& rng, std::int64_t bytes,
                                        sim::Time depart_ready,
                                        const fault::NetFaultDecision* decision) {
  const double factor = decision ? decision->delay_factor : 1.0;
  const double extra = decision ? decision->extra_delay : 0.0;
  const sim::Time d = sample_delay(level, bytes, rng) * factor + extra;
  if (!decision || !decision->drop) count_delivery(level, bytes, d);
  return depart_ready + d;
}

sim::Time NetworkModel::egress_to_wire(int src_rank, int dst_rank, std::int64_t bytes,
                                       sim::Time depart_ready,
                                       const fault::NetFaultDecision* decision) {
  const double factor = decision ? decision->delay_factor : 1.0;
  const double extra = decision ? decision->extra_delay : 0.0;
  const auto src_node = static_cast<std::size_t>(topo_->locate(src_rank).node);
  const double nic_busy = params_.nic_gap + params_.nic_per_byte * static_cast<double>(bytes);
  const sim::Time depart = std::max(depart_ready, egress_free_[src_node]);
  egress_free_[src_node] = depart + nic_busy;
  sim::Rng& rng = channels_.at(src_rank, dst_rank);
  return depart + sample_delay(LinkLevel::kInterNode, bytes, rng) * factor + extra;
}

sim::Time NetworkModel::ingress_admit(int dst_rank, std::int64_t bytes, sim::Time port_time,
                                      sim::Time depart_ready) {
  const auto dst_node = static_cast<std::size_t>(topo_->locate(dst_rank).node);
  const double nic_busy = params_.nic_gap + params_.nic_per_byte * static_cast<double>(bytes);
  const sim::Time arrive = std::max(port_time, ingress_free_[dst_node]);
  ingress_free_[dst_node] = arrive + nic_busy;
  count_delivery(LinkLevel::kInterNode, bytes, arrive - depart_ready);
  return arrive;
}

sim::Time NetworkModel::transit_time(int src_rank, int dst_rank, std::int64_t bytes,
                                     sim::Time depart_ready, DeliveryFaults* faults) {
  return transit_time(classify(src_rank, dst_rank), src_rank, dst_rank, bytes, depart_ready,
                      faults);
}

sim::Time NetworkModel::transit_time(LinkLevel level, int src_rank, int dst_rank,
                                     std::int64_t bytes, sim::Time depart_ready,
                                     DeliveryFaults* faults) {
  const auto attempt = [&](sim::Time ready, const fault::NetFaultDecision* decision) {
    return level == LinkLevel::kInterNode
               ? egress_to_wire(src_rank, dst_rank, bytes, ready, decision)
               : deliver_attempt(level, channels_.at(src_rank, dst_rank), bytes, ready, decision);
  };
  if (!faults || !injector_ || !injector_->net_active()) return attempt(depart_ready, nullptr);
  const double rto = retransmit_timeout(level, bytes);
  sim::Time ready = depart_ready;
  for (int n = 0;; ++n) {
    fault::NetFaultDecision fd =
        injector_->on_message(src_rank, dst_rank, static_cast<int>(level), ready);
    // The last permitted attempt always goes through: the reliable transport
    // may degrade timing arbitrarily but never loses a message outright.
    if (n >= kMaxRetransmits) fd.drop = false;
    const sim::Time t = attempt(ready, &fd);
    if (!fd.drop) {
      faults->retransmits = n;
      faults->duplicate = fd.duplicate;
      if (trace::Counter* m = n > 0 ? g_retransmits.get() : nullptr) {
        m->inc(static_cast<std::uint64_t>(n));
      }
      return t;
    }
    ready += rto;
  }
}

sim::Time NetworkModel::deliver_time(int src_rank, int dst_rank, std::int64_t bytes,
                                     sim::Time depart_ready, DeliveryFaults* faults) {
  const LinkLevel level = classify(src_rank, dst_rank);
  const sim::Time t = transit_time(level, src_rank, dst_rank, bytes, depart_ready, faults);
  if (level != LinkLevel::kInterNode) return t;
  return ingress_admit(dst_rank, bytes, t, depart_ready);
}

BurstLeg NetworkModel::burst_leg(int src_rank, int dst_rank) {
  return {src_rank, dst_rank, classify(src_rank, dst_rank), &channels_.at(src_rank, dst_rank)};
}

sim::Time NetworkModel::deliver_leg(const BurstLeg& leg, std::int64_t bytes,
                                    sim::Time depart_ready, fault::NetFaultDecision* decision) {
  if (!decision || !injector_ || !injector_->net_active()) decision = nullptr;
  if (decision) {
    *decision = injector_->on_message(leg.src, leg.dst, static_cast<int>(leg.level), depart_ready);
  }
  return deliver_attempt(leg.level, *leg.rng, bytes, depart_ready, decision);
}

}  // namespace hcs::simmpi
