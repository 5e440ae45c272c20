#include "clocksync/hca.hpp"

#include "vclock/global_clock.hpp"

namespace hcs::clocksync {

HCASync::HCASync(SyncConfig cfg, std::unique_ptr<OffsetAlgorithm> oalg)
    : HCA2Sync(cfg, std::move(oalg)) {}

std::string HCASync::name() const { return sync_label("hca", cfg_, *oalg_); }

sim::Task<SyncResult> HCASync::sync_clocks(simmpi::Comm& comm, vclock::ClockPtr clk) {
  LearnResult learned = co_await run_tree_and_scatter(comm, clk);
  // Concrete GlobalClockLM, not a ClockPtr: the final pass below edits the
  // intercept in place.
  auto global = std::make_shared<vclock::GlobalClockLM>(clk, learned.model);

  // Final O(p) pass: the root measures the residual offset of each process's
  // *global* clock and the process absorbs it into its intercept.
  const int r = comm.rank();
  if (r == 0) {
    for (int client = 1; client < comm.size(); ++client) {
      if (comm.peer_status(client) == simmpi::PeerStatus::kDead) continue;
      (void)co_await oalg_->measure_offset(comm, *global, 0, client);
    }
  } else {
    const ClockOffset o = co_await oalg_->measure_offset(comm, *global, 0, r);
    learned.report.exchanges_lost += o.lost;
    learned.report.retries += o.retries;
    if (o.valid) {
      global->adjust_intercept(o.offset);
    } else {
      // The residual-offset burst lost every exchange; keep the scattered
      // intercept and flag the rank instead of adjusting by garbage.
      ++learned.report.points_invalid;
    }
    if (o.lost > 0 || !o.valid) {
      learned.report.health = std::max(learned.report.health, SyncHealth::kDegraded);
    }
  }
  co_return SyncResult{std::move(global), learned.report};
}

}  // namespace hcs::clocksync
