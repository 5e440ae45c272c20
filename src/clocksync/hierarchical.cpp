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

// One hierarchy level, self-healing under the crash model: if any live
// member's level sync failed (typically because the level's reference rank
// died mid-phase), the survivors agree on a re-run, re-split — which elects
// the lowest live rank of the group as the replacement reference and
// re-parents the orphans under it — and repeat just this level.  Healed
// ranks report at least kDegraded even when the re-run succeeds: their clock
// chains through a replacement elected after the original reference died.
// Fault-free — and under any plan whose first crash/link-cut has not fired
// yet — this is exactly one sync_clocks call, bit-identical to the
// pre-healing behaviour.
sim::Task<SyncResult> HierarchicalSync::run_level(ClockSync& algo, simmpi::Comm& level,
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

// Algorithm 4 (H2HCA).
sim::Task<SyncResult> HierarchicalSync::sync_h2(simmpi::Comm& comm, vclock::ClockPtr clk) {
  const int wr = comm.my_world_rank();
  // Communicator creation (MPI_COMM_TYPE_SHARED analogue + a leaders split);
  // deliberately inside the timed region, as in the paper's evaluation.
  simmpi::Comm comm_intranode;
  simmpi::Comm comm_internode;
  {
    HCS_TRACE_SCOPE(Sync, wr, "hier.split");
    comm_intranode = co_await comm.split_shared_node();
    const int leader_color = comm_intranode.rank() == 0 ? 0 : simmpi::Comm::kUndefined;
    comm_internode = co_await comm.split(leader_color, comm.rank());
  }

  // Step 1: synchronization between nodes.  Level reports merge: a rank is
  // degraded if any level it participated in was degraded.
  SyncReport report;
  vclock::ClockPtr global_clk1 = vclock::GlobalClockLM::identity(clk);
  if (comm_internode.valid() && comm_internode.size() > 1) {
    HCS_TRACE_SCOPE(Sync, wr, "hier.top");
    SyncResult res = co_await run_level(*top_, comm_internode, clk);
    global_clk1 = std::move(res.clock);
    report.merge(res.report);
  }
  // Step 2: synchronization within the compute node.
  vclock::ClockPtr global_clk2 = global_clk1;
  if (comm_intranode.size() > 1) {
    HCS_TRACE_SCOPE(Sync, wr, "hier.bottom");
    SyncResult res = co_await run_level(*bottom_, comm_intranode, global_clk1);
    global_clk2 = std::move(res.clock);
    report.merge(res.report);
  }
  co_return SyncResult{std::move(global_clk2), report};
}

// §IV-D (H3HCA): node leaders / socket leaders per node / within-socket.
sim::Task<SyncResult> HierarchicalSync::sync_h3(simmpi::Comm& comm, vclock::ClockPtr clk) {
  const int wr = comm.my_world_rank();
  simmpi::Comm comm_socket;
  simmpi::Comm comm_socket_leaders;
  simmpi::Comm comm_internode;
  {
    HCS_TRACE_SCOPE(Sync, wr, "hier.split");
    comm_socket = co_await comm.split_shared_socket();
    const auto loc = comm.world().topo().locate(comm.my_world_rank());
    const int socket_leader_color =
        comm_socket.rank() == 0 ? loc.node : simmpi::Comm::kUndefined;
    comm_socket_leaders = co_await comm.split(socket_leader_color, comm.rank());
    const bool is_node_leader = comm_socket_leaders.valid() && comm_socket_leaders.rank() == 0;
    const int node_leader_color = is_node_leader ? 0 : simmpi::Comm::kUndefined;
    comm_internode = co_await comm.split(node_leader_color, comm.rank());
  }

  SyncReport report;
  vclock::ClockPtr global_clk1 = vclock::GlobalClockLM::identity(clk);
  if (comm_internode.valid() && comm_internode.size() > 1) {
    HCS_TRACE_SCOPE(Sync, wr, "hier.top");
    SyncResult res = co_await run_level(*top_, comm_internode, clk);
    global_clk1 = std::move(res.clock);
    report.merge(res.report);
  }
  vclock::ClockPtr global_clk2 = global_clk1;
  if (comm_socket_leaders.valid() && comm_socket_leaders.size() > 1) {
    HCS_TRACE_SCOPE(Sync, wr, "hier.mid");
    SyncResult res = co_await run_level(*mid_, comm_socket_leaders, global_clk1);
    global_clk2 = std::move(res.clock);
    report.merge(res.report);
  }
  vclock::ClockPtr global_clk3 = global_clk2;
  if (comm_socket.size() > 1) {
    HCS_TRACE_SCOPE(Sync, wr, "hier.bottom");
    SyncResult res = co_await run_level(*bottom_, comm_socket, global_clk2);
    global_clk3 = std::move(res.clock);
    report.merge(res.report);
  }
  co_return SyncResult{std::move(global_clk3), report};
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
