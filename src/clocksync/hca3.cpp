#include "clocksync/hca3.hpp"

#include <algorithm>
#include <stdexcept>

#include "clocksync/healing.hpp"
#include "clocksync/model_learning.hpp"
#include "trace/span.hpp"
#include "vclock/global_clock.hpp"

namespace hcs::clocksync {

HCA3Sync::HCA3Sync(SyncConfig cfg, std::unique_ptr<OffsetAlgorithm> oalg)
    : cfg_(cfg), oalg_(std::move(oalg)) {
  if (!oalg_) throw std::invalid_argument("HCA3Sync: null offset algorithm");
}

std::string HCA3Sync::name() const { return sync_label("hca3", cfg_, *oalg_); }

sim::Task<SyncResult> HCA3Sync::sync_clocks(simmpi::Comm& comm, vclock::ClockPtr clk) {
  SyncResult res = co_await sync_once(comm, clk);
  if (!crash_era_begun(comm) || comm.size() <= 1) co_return res;
  // Crash healing: a dead tree reference orphans its whole subtree (the
  // orphan serves its own children with an unsynchronized clock).  The
  // survivors agree, re-split — contiguously renumbering the live ranks, so
  // every orphan is re-parented and the lowest live rank becomes the new
  // root — and re-run the tree once over the quorum.
  const bool rerun = co_await agree_any(comm, res.report.health == SyncHealth::kFailed);
  if (!rerun) co_return res;
  simmpi::Comm healed = co_await surviving_quorum(comm);
  if (healed.size() <= 1) {
    res.report.health = std::max(res.report.health, SyncHealth::kDegraded);
    co_return res;
  }
  SyncResult redo = co_await sync_once(healed, std::move(clk));
  redo.report.points_invalid += res.report.points_invalid;
  redo.report.exchanges_lost += res.report.exchanges_lost;
  redo.report.retries += res.report.retries;
  redo.report.health = std::max(redo.report.health, SyncHealth::kDegraded);
  co_return redo;
}

sim::Task<SyncResult> HCA3Sync::sync_once(simmpi::Comm& comm, vclock::ClockPtr clk) {
  const int nprocs = comm.size();
  const int r = comm.rank();
  HCS_TRACE_SCOPE(Sync, comm.my_world_rank(), "hca3.sync_clocks", nprocs);

  int nrounds = 0;
  while ((2 << nrounds) <= nprocs) ++nrounds;  // floor(log2(nprocs))
  const int max_power = 1 << nrounds;

  vclock::ClockPtr my_clk = vclock::GlobalClockLM::identity(clk);  // dummy clock
  SyncReport report;  // each rank is a client at most once, plus ref roles

  // Step 1: ranks below max_power, reference time flowing down the tree.
  for (int i = nrounds; i >= 1; --i) {
    const int running_power = 1 << i;
    const int next_power = 1 << (i - 1);
    if (r >= max_power) break;
    if (r % running_power == 0) {
      const int other_rank = r + next_power;
      (void)co_await learn_clock_model(comm, r, other_rank, *my_clk, *oalg_, cfg_);
    } else if (r % running_power == next_power) {
      const int other_rank = r - next_power;
      const LearnResult learned =
          co_await learn_clock_model(comm, other_rank, r, *my_clk, *oalg_, cfg_);
      report.merge(learned.report);
      my_clk = std::make_shared<vclock::GlobalClockLM>(clk, learned.model);
    }
  }

  // Step 2: the remaining ranks in [max_power, nprocs).
  if (r >= max_power) {
    const int other_rank = r - max_power;
    const LearnResult learned =
        co_await learn_clock_model(comm, other_rank, r, *my_clk, *oalg_, cfg_);
    report.merge(learned.report);
    my_clk = std::make_shared<vclock::GlobalClockLM>(clk, learned.model);
  } else if (r < nprocs - max_power) {
    const int other_rank = r + max_power;
    (void)co_await learn_clock_model(comm, r, other_rank, *my_clk, *oalg_, cfg_);
  }
  co_return SyncResult{std::move(my_clk), report};
}

}  // namespace hcs::clocksync
