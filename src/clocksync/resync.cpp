#include "clocksync/resync.hpp"

#include <stdexcept>

#include "replay/observe.hpp"
#include "simmpi/collectives.hpp"
#include "trace/metrics.hpp"
#include "trace/span.hpp"
#include "util/vec.hpp"

namespace hcs::clocksync {

ResyncManager::ResyncManager(std::unique_ptr<ClockSync> inner, double interval)
    : inner_(std::move(inner)), interval_(interval) {
  if (!inner_) throw std::invalid_argument("ResyncManager: null inner algorithm");
  if (interval <= 0) throw std::invalid_argument("ResyncManager: interval must be > 0");
}

sim::Task<SyncResult> ResyncManager::tick(simmpi::Comm& comm, vclock::ClockPtr base) {
  bool resync_now = false;
  if (!current_.clock) {
    resync_now = true;  // first tick: everyone agrees unconditionally
  } else {
    // Rank 0 decides on its global clock; a broadcast makes the decision
    // unanimous even if other ranks' clocks disagree around the deadline.
    std::vector<double> decision;
    if (comm.rank() == 0) {
      decision = util::vec(replay::observed_now(comm, *current_.clock) >= deadline_ ? 1.0 : 0.0);
    }
    decision = co_await simmpi::bcast(comm, std::move(decision), 0);
    resync_now = decision.at(0) != 0.0;
  }
  if (resync_now) {
    HCS_TRACE_INSTANT(Sync, comm.my_world_rank(), "resync", resyncs_);
    if (comm.rank() == 0) HCS_METRIC_INC("sync.resyncs");  // once per round, not per rank
    current_ = co_await inner_->sync_clocks(comm, std::move(base));
    deadline_ = replay::observed_now(comm, *current_.clock) + interval_;
    ++resyncs_;
  }
  co_return current_;
}

}  // namespace hcs::clocksync
