#include "clocksync/clock_prop.hpp"

#include "simmpi/collectives.hpp"
#include "util/vec.hpp"
#include "vclock/global_clock.hpp"

namespace hcs::clocksync {

sim::Task<SyncResult> ClockPropSync::sync_clocks(simmpi::Comm& comm, vclock::ClockPtr clk) {
  const bool i_am_ref = comm.rank() == p_ref_;

  // Two broadcasts as in Alg. 3: buffer size first, then the flat buffer.
  // Broadcasts ride the reliable transport (bounded retransmit, never lost),
  // so the report stays clean even under fault injection.
  std::vector<double> buffer;
  if (i_am_ref) buffer = vclock::flatten_clock(clk);
  const std::vector<double> size_msg = co_await simmpi::bcast(
      comm, util::vec(static_cast<double>(buffer.size())), p_ref_, simmpi::BcastAlgo::kBinomial);
  (void)size_msg;  // the simulated transport derives buffer sizes itself
  buffer = co_await simmpi::bcast(comm, std::move(buffer), p_ref_, simmpi::BcastAlgo::kBinomial);

  if (i_am_ref) co_return SyncResult{std::move(clk), {}};
  // Rebuild the reference's model chain on top of my own base clock; valid
  // because both clocks tick off the same hardware time source.
  co_return SyncResult{vclock::unflatten_clock(std::move(clk), buffer), {}};
}

}  // namespace hcs::clocksync
