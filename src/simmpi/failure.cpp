#include "simmpi/failure.hpp"

#include <algorithm>

#include "simmpi/network.hpp"

namespace hcs::simmpi {

const char* to_string(PeerStatus status) {
  switch (status) {
    case PeerStatus::kAlive: return "alive";
    case PeerStatus::kSuspected: return "suspected";
    case PeerStatus::kDead: return "dead";
    case PeerStatus::kRecovered: return "recovered";
  }
  return "?";
}

FailureDetector::FailureDetector(const fault::FaultInjector& injector, const NetworkModel& net)
    : injector_(&injector), first_event_(injector.first_failure_time()) {
  // A real heartbeat daemon probes at a small multiple of the worst-case
  // small-message round-trip so in-time replies never look like misses.
  const double rtt = 2.0 * net.expected_delay(LinkLevel::kInterNode, 8) +
                     2.0 * (net.send_overhead() + net.recv_overhead());
  probe_period_ = 8.0 * rtt;
  detection_latency_ = probe_period_ * static_cast<double>((1 << kProbeMisses) - 1);
}

PeerStatus FailureDetector::status(int observer, int peer, sim::Time now) const noexcept {
  if (observer == peer) return PeerStatus::kAlive;
  // Link cuts are permanent, so they classify against the cut instant alone
  // (with both a cut and a crash, the thresholds combine to exactly the old
  // min(crash, cut) event time).
  PeerStatus link_status = PeerStatus::kAlive;
  const sim::Time cut = injector_->link_down_time(observer, peer);
  if (cut < sim::kTimeInfinity) {
    if (now >= cut + detection_latency_) return PeerStatus::kDead;
    if (now >= cut + probe_period_) link_status = PeerStatus::kSuspected;
  }
  // Walk the peer's down intervals in order.  Window k becomes visible at
  // begin + P (first missed probe), declares dead at begin + latency, and
  // clears — dead or not — one probe period after the restart.
  PeerStatus churn_status = PeerStatus::kAlive;
  const int windows = injector_->incarnation_count(peer) - 1;
  for (int k = 0; k < windows; ++k) {
    const sim::Time begin = injector_->up_end(peer, k);
    const sim::Time end = injector_->up_start(peer, k + 1);
    if (now < begin + probe_period_) break;  // later windows start even later
    const sim::Time cleared =
        end >= sim::kTimeInfinity ? sim::kTimeInfinity : end + probe_period_;
    if (now >= cleared) {
      churn_status = PeerStatus::kRecovered;
      continue;
    }
    if (now >= begin + detection_latency_) return PeerStatus::kDead;
    return PeerStatus::kSuspected;
  }
  if (link_status == PeerStatus::kSuspected) return PeerStatus::kSuspected;
  return churn_status;
}

sim::Time FailureDetector::detect_time_after(int observer, int peer, sim::Time now) const noexcept {
  if (observer == peer) return sim::kTimeInfinity;
  sim::Time best = sim::kTimeInfinity;
  const sim::Time cut = injector_->link_down_time(observer, peer);
  if (cut < sim::kTimeInfinity) best = cut + detection_latency_;
  const int windows = injector_->incarnation_count(peer) - 1;
  for (int k = 0; k < windows; ++k) {
    const sim::Time begin = injector_->up_end(peer, k);
    const sim::Time end = injector_->up_start(peer, k + 1);
    const sim::Time dead_begin = begin + detection_latency_;
    const sim::Time dead_end =
        end >= sim::kTimeInfinity ? sim::kTimeInfinity : end + probe_period_;
    if (dead_begin >= dead_end) continue;  // rejoined before the declaration
    if (now < dead_end) {
      best = std::min(best, dead_begin);
      break;  // intervals are sorted: later windows declare later
    }
  }
  return best;
}

}  // namespace hcs::simmpi
