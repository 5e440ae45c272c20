#include "clocksync/skampi_sync.hpp"

#include <stdexcept>

#include "vclock/global_clock.hpp"

namespace hcs::clocksync {

SKaMPISync::SKaMPISync(std::unique_ptr<OffsetAlgorithm> oalg) : oalg_(std::move(oalg)) {
  if (!oalg_) throw std::invalid_argument("SKaMPISync: null offset algorithm");
}

std::string SKaMPISync::name() const {
  return "skampi/" + oalg_->name() + "/" + std::to_string(oalg_->nexchanges());
}

sim::Task<SyncResult> SKaMPISync::sync_clocks(simmpi::Comm& comm, vclock::ClockPtr clk) {
  const int r = comm.rank();
  if (r == 0) {
    for (int client = 1; client < comm.size(); ++client) {
      // Unreachable clients are marked failed on their own side; the
      // reference just skips them and keeps serving the quorum.
      if (comm.peer_status(client) == simmpi::PeerStatus::kDead) continue;
      (void)co_await oalg_->measure_offset(comm, *clk, 0, client);
    }
    co_return SyncResult{vclock::GlobalClockLM::identity(std::move(clk)), {}};
  }
  const ClockOffset o = co_await oalg_->measure_offset(comm, *clk, 0, r);
  SyncReport report;
  report.points_requested = 1;
  report.exchanges_lost = o.lost;
  report.retries = o.retries;
  if (o.valid) {
    report.points_used = 1;
    if (o.lost > 0) report.health = SyncHealth::kDegraded;
  } else {
    report.points_invalid = 1;
    report.health = SyncHealth::kFailed;  // no usable measurement: identity fallback
  }
  // Constant offset, no drift model: slope = 0 (an invalid measurement
  // carries offset 0.0, so the fallback is the uncorrected clock).
  co_return SyncResult{
      std::make_shared<vclock::GlobalClockLM>(std::move(clk), vclock::LinearModel{0.0, o.offset}),
      report};
}

}  // namespace hcs::clocksync
