#include "clocksync/hierarchical.hpp"

#include <algorithm>
#include <stdexcept>

#include "clocksync/healing.hpp"
#include "trace/span.hpp"
#include "vclock/global_clock.hpp"

namespace hcs::clocksync {

HierarchicalSync::HierarchicalSync(std::unique_ptr<ClockSync> top, std::unique_ptr<ClockSync> mid,
                                   std::unique_ptr<ClockSync> bottom)
    : top_(std::move(top)), mid_(std::move(mid)), bottom_(std::move(bottom)) {
  if (!top_ || !bottom_) throw std::invalid_argument("HierarchicalSync: null level algorithm");
}

std::string HierarchicalSync::name() const {
  if (mid_) {
    return "Top/" + top_->name() + "/Mid/" + mid_->name() + "/Bottom/" + bottom_->name();
  }
  return "Top/" + top_->name() + "/Bottom/" + bottom_->name();
}

sim::Task<SyncResult> HierarchicalSync::sync_clocks(simmpi::Comm& comm, vclock::ClockPtr clk) {
  if (mid_) return sync_h3(comm, std::move(clk));
  return sync_h2(comm, std::move(clk));
}

// One hierarchy level.  Without a failure detector no rank can crash, so
// the level is exactly one sync_clocks call and this function returns it:
// a rank waiting in the level holds no frame of its own here.
sim::Task<SyncResult> HierarchicalSync::run_level(ClockSync& algo, simmpi::Comm& level,
                                                  vclock::ClockPtr base) {
  if (!crash_model_active(level)) return algo.sync_clocks(level, std::move(base));
  return run_level_healing(algo, level, std::move(base));
}

// One hierarchy level, self-healing under the crash model: if any live
// member's level sync failed (typically because the level's reference rank
// died mid-phase), the survivors agree on a re-run, re-split — which elects
// the lowest live rank of the group as the replacement reference and
// re-parents the orphans under it — and repeat just this level.  Healed
// ranks report at least kDegraded even when the re-run succeeds: their clock
// chains through a replacement elected after the original reference died.
// Under any plan whose first crash/link-cut has not fired yet this is
// exactly one sync_clocks call, bit-identical to the fault-free run.
sim::Task<SyncResult> HierarchicalSync::run_level_healing(ClockSync& algo, simmpi::Comm& level,
                                                          vclock::ClockPtr base) {
  SyncResult res = co_await algo.sync_clocks(level, base);
  if (!crash_era_begun(level)) co_return res;
  const bool rerun = co_await agree_any(level, res.report.health == SyncHealth::kFailed);
  if (!rerun) co_return res;
  simmpi::Comm healed = co_await surviving_quorum(level);
  if (healed.size() <= 1) {
    // Sole survivor of its group: nothing left to synchronize against.
    res.report.health = std::max(res.report.health, SyncHealth::kDegraded);
    co_return res;
  }
  SyncResult redo = co_await algo.sync_clocks(healed, std::move(base));
  redo.report.points_invalid += res.report.points_invalid;
  redo.report.exchanges_lost += res.report.exchanges_lost;
  redo.report.retries += res.report.retries;
  redo.report.health = std::max(redo.report.health, SyncHealth::kDegraded);
  co_return redo;
}

// sync_h2 and sync_h3 hold their frame on every rank for the whole sync,
// so they keep few locals across a suspension: each communicator is
// initialized by its split in place, and the levels run from one await site
// (GCC gives every await site and every block's locals their own frame
// slots).  Clocks nest: each level's clock is the next level's base, and
// level reports merge — a rank is degraded if any level it took part in was.

// Algorithm 4 (H2HCA).
sim::Task<SyncResult> HierarchicalSync::sync_h2(simmpi::Comm& comm, vclock::ClockPtr clk) {
  const int wr = comm.my_world_rank();
  // Communicator creation (MPI_COMM_TYPE_SHARED analogue + a leaders split);
  // deliberately inside the timed region, as in the paper's evaluation.
  trace::Span split_span(trace::active_tracer(), trace::Category::kSync, wr, "hier.split");
  simmpi::Comm comm_intranode = co_await comm.split_shared_node();
  simmpi::Comm comm_internode = co_await comm.split(
      comm_intranode.rank() == 0 ? 0 : simmpi::Comm::kUndefined, comm.rank());
  split_span.end();

  // Step 1: synchronization between nodes.  Step 2: within the compute node.
  SyncResult out{vclock::GlobalClockLM::identity(clk), {}};
  for (int step = 0; step < 2; ++step) {
    simmpi::Comm& level = step == 0 ? comm_internode : comm_intranode;
    if (!level.valid() || level.size() <= 1) continue;
    HCS_TRACE_SCOPE(Sync, wr, step == 0 ? "hier.top" : "hier.bottom");
    SyncResult res =
        co_await run_level(step == 0 ? *top_ : *bottom_, level, step == 0 ? clk : out.clock);
    out.clock = std::move(res.clock);
    out.report.merge(res.report);
  }
  co_return out;
}

// §IV-D (H3HCA): node leaders / socket leaders per node / within-socket.
sim::Task<SyncResult> HierarchicalSync::sync_h3(simmpi::Comm& comm, vclock::ClockPtr clk) {
  const int wr = comm.my_world_rank();
  trace::Span split_span(trace::active_tracer(), trace::Category::kSync, wr, "hier.split");
  simmpi::Comm comm_socket = co_await comm.split_shared_socket();
  simmpi::Comm comm_socket_leaders = co_await comm.split(
      comm_socket.rank() == 0 ? comm.world().topo().locate(wr).node : simmpi::Comm::kUndefined,
      comm.rank());
  simmpi::Comm comm_internode = co_await comm.split(
      comm_socket_leaders.valid() && comm_socket_leaders.rank() == 0 ? 0
                                                                     : simmpi::Comm::kUndefined,
      comm.rank());
  split_span.end();

  static constexpr const char* kLevelSpans[] = {"hier.top", "hier.mid", "hier.bottom"};
  SyncResult out{vclock::GlobalClockLM::identity(clk), {}};
  for (int step = 0; step < 3; ++step) {
    simmpi::Comm& level =
        step == 0 ? comm_internode : step == 1 ? comm_socket_leaders : comm_socket;
    if (!level.valid() || level.size() <= 1) continue;
    HCS_TRACE_SCOPE(Sync, wr, kLevelSpans[step]);
    ClockSync& algo = step == 0 ? *top_ : step == 1 ? *mid_ : *bottom_;
    SyncResult res = co_await run_level(algo, level, step == 0 ? clk : out.clock);
    out.clock = std::move(res.clock);
    out.report.merge(res.report);
  }
  co_return out;
}

std::unique_ptr<ClockSync> make_h2hca(std::unique_ptr<ClockSync> top,
                                      std::unique_ptr<ClockSync> bottom) {
  return std::make_unique<HierarchicalSync>(std::move(top), nullptr, std::move(bottom));
}

std::unique_ptr<ClockSync> make_h3hca(std::unique_ptr<ClockSync> top,
                                      std::unique_ptr<ClockSync> mid,
                                      std::unique_ptr<ClockSync> bottom) {
  return std::make_unique<HierarchicalSync>(std::move(top), std::move(mid), std::move(bottom));
}

}  // namespace hcs::clocksync
