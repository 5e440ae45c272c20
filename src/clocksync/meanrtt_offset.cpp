#include "clocksync/meanrtt_offset.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "replay/observe.hpp"

namespace hcs::clocksync {

namespace {
constexpr std::int64_t kPingBytes = 8;
}

MeanRttOffset::MeanRttOffset(int nexchanges) : nexchanges_(nexchanges) {
  if (nexchanges < 1) throw std::invalid_argument("MeanRttOffset: nexchanges must be >= 1");
}

std::unique_ptr<OffsetAlgorithm> MeanRttOffset::clone() const {
  return std::make_unique<MeanRttOffset>(nexchanges_);
}

sim::Task<ClockOffset> MeanRttOffset::measure_offset(simmpi::Comm& comm, vclock::Clock& clk,
                                                     int p_ref, int client) {
  const int me = comm.rank();
  if (me != p_ref && me != client) {
    throw std::logic_error("MeanRttOffset: called by a non-participating rank");
  }
  const bool i_am_client = (me == client);
  const int partner = i_am_client ? p_ref : client;
  const auto key = std::make_pair(p_ref, client);

  // Measure the RTT once per pair; both sides keep the cache consistent by
  // both participating in the extra burst.
  auto cached = rtt_cache_.find(key);
  ClockOffset result;
  if (cached == rtt_cache_.end()) {
    // One extra warmup exchange: the very first ping-pong of a pair includes
    // the time the partner spent busy elsewhere (e.g. JK's reference serving
    // earlier clients), which would bias the mean RTT by milliseconds.
    // Dropping it matches real measure_rtt implementations.
    const simmpi::BurstResult warmup =
        co_await comm.pingpong_burst(partner, i_am_client, clk, nexchanges_ + 1, kPingBytes);
    result.lost += warmup.lost;
    result.retries += warmup.retries;
    double rtt = 0.0;
    if (i_am_client && warmup.samples.size() >= 2) {
      for (std::size_t i = 1; i < warmup.samples.size(); ++i) {
        rtt += warmup.samples[i].client_recv - warmup.samples[i].client_send;
      }
      rtt /= static_cast<double>(warmup.samples.size() - 1);
    }
    // A warmup burst that lost (almost) every exchange caches rtt == 0; the
    // offset measurements below still work, just without the RTT/2 midpoint
    // correction, and the loss shows up in the rank's sync report.
    cached = rtt_cache_.emplace(key, rtt).first;
  }

  const simmpi::BurstResult burst =
      co_await comm.pingpong_burst(partner, i_am_client, clk, nexchanges_, kPingBytes);
  result.lost += burst.lost;
  result.retries += burst.retries;
  if (!i_am_client) co_return result;
  if (burst.samples.empty()) {
    result.valid = false;
    result.timestamp = replay::observed_now(comm, clk);
    co_return result;
  }

  const double rtt = cached->second;
  // diff = local - ref - rtt/2, i.e. -(offset to reference).
  struct Observation {
    double timestamp;
    double diff;
  };
  std::vector<Observation> observations;
  observations.reserve(burst.samples.size());
  double min_rtt = std::numeric_limits<double>::infinity();
  for (const simmpi::PingSample& s : burst.samples) {
    observations.push_back({s.client_recv, s.client_recv - s.ref_reply - rtt / 2.0});
    min_rtt = std::min(min_rtt, s.client_recv - s.client_send);
  }
  const auto mid = observations.begin() + static_cast<std::ptrdiff_t>(observations.size() / 2);
  std::nth_element(observations.begin(), mid, observations.end(),
                   [](const Observation& a, const Observation& b) { return a.diff < b.diff; });
  // The paper's time_var is (local - ref): negate to report (ref - local),
  // the convention ClockOffset and the fitted models use.
  result.timestamp = mid->timestamp;
  result.offset = -mid->diff;
  result.min_rtt = min_rtt;
  co_return result;
}

}  // namespace hcs::clocksync
