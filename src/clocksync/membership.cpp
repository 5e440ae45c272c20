#include "clocksync/membership.hpp"

#include <algorithm>

#include "trace/span.hpp"
#include "vclock/global_clock.hpp"

namespace hcs::clocksync {

int hca3_parent(int rank, int nprocs) {
  if (rank <= 0 || nprocs <= 1) return -1;
  int nrounds = 0;
  while ((2 << nrounds) <= nprocs) ++nrounds;
  const int max_power = 1 << nrounds;
  if (rank >= max_power) return rank - max_power;   // step-2 clients
  return rank - (rank & -rank);                     // step-1: clear lowest set bit
}

std::vector<ReadmitEvent> readmit_schedule(simmpi::World& world) {
  std::vector<ReadmitEvent> out;
  const fault::FaultInjector* fault = world.fault_injector();
  if (fault == nullptr || !fault->churn_active()) return out;
  for (int r = 0; r < world.size(); ++r) {
    if (!fault->has_churn(r)) continue;
    const int incarnations = fault->incarnation_count(r);
    for (int k = 1; k < incarnations; ++k) {
      const sim::Time at = fault->up_start(r, k);
      if (at >= sim::kTimeInfinity) break;        // final departure: no restart
      if (fault->up_end(r, k) <= at) continue;    // empty slot
      out.push_back(ReadmitEvent{at, r, k});
    }
  }
  std::sort(out.begin(), out.end(), [](const ReadmitEvent& a, const ReadmitEvent& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.rank < b.rank;
  });
  return out;
}

namespace {

// Position of `world_rank` among the ranks up at `at`; -1 when down.
int view_position(simmpi::World& world, int world_rank, sim::Time at) {
  const fault::FaultInjector* fault = world.fault_injector();
  int pos = 0;
  for (int r = 0; r < world.size(); ++r) {
    if (fault != nullptr && fault->is_down(r, at)) continue;
    if (r == world_rank) return pos;
    ++pos;
  }
  return -1;
}

}  // namespace

int readmit_reference(simmpi::World& world, const ReadmitEvent& event) {
  const fault::FaultInjector* fault = world.fault_injector();
  std::vector<int> members;
  members.reserve(static_cast<std::size_t>(world.size()));
  int pos = -1;
  for (int r = 0; r < world.size(); ++r) {
    if (fault != nullptr && fault->is_down(r, event.at)) continue;
    if (r == event.rank) pos = static_cast<int>(members.size());
    members.push_back(r);
  }
  const int n = static_cast<int>(members.size());
  if (pos < 0 || n < 2) return -1;
  // A rank restarting at the same instant is itself a re-admission client
  // and cannot serve (two simultaneous returners referencing each other
  // would deadlock); walk up the tree past them, then fall back to the
  // lowest settled member.
  const auto restarting_here = [&](int world_rank) {
    if (fault == nullptr || !fault->has_churn(world_rank)) return false;
    const int k = fault->incarnation(world_rank, event.at);
    return k > 0 && fault->up_start(world_rank, k) == event.at;
  };
  for (int p = pos; (p = hca3_parent(p, n)) >= 0;) {
    if (!restarting_here(members[static_cast<std::size_t>(p)])) {
      return members[static_cast<std::size_t>(p)];
    }
  }
  for (int i = 0; i < n; ++i) {
    if (i == pos || restarting_here(members[static_cast<std::size_t>(i)])) continue;
    return members[static_cast<std::size_t>(i)];
  }
  return -1;  // every other member is also restarting right now
}

sim::Task<SyncResult> readmit(simmpi::Comm& view, ReadmitEvent event, vclock::ClockPtr clk,
                              OffsetAlgorithm& oalg, ReadmitPolicy policy) {
  simmpi::World& world = view.world();
  const int me = view.my_world_rank();
  const int client_pos = view_position(world, event.rank, event.at);
  const int ref_world = readmit_reference(world, event);
  const int ref_pos = view_position(world, ref_world, event.at);
  HCS_TRACE_SCOPE(Sync, me, "membership.readmit", event.incarnation);
  if (client_pos < 0 || ref_pos < 0) co_return SyncResult{std::move(clk), SyncReport{}};
  if (view.rank() != client_pos) {
    // The failure detector clears the returning rank one probe period after
    // its restart; a burst posted before that would abandon against a
    // believed-dead partner.  The serving side therefore rendezvouses at
    // event.at + P — the client simply blocks until it is served.
    const simmpi::FailureDetector* fd = view.world().failure_detector();
    sim::Simulation& s = view.sim();
    const sim::Time ready = fd != nullptr ? event.at + fd->probe_period() : event.at;
    if (s.now() < ready) co_await s.delay(ready - s.now());
  }
  if (view.rank() == client_pos) {
    // The returning rank's sub-phase of the tree: one pairwise learn against
    // its reference, then re-anchor the global clock — exactly what its
    // original HCA3 round did, and nothing more.
    vclock::ClockPtr dummy = vclock::GlobalClockLM::identity(clk);
    const LearnResult learned =
        co_await learn_clock_model(view, ref_pos, client_pos, *dummy, oalg, policy.sync);
    co_return SyncResult{std::make_shared<vclock::GlobalClockLM>(clk, learned.model),
                         learned.report};
  }
  // Serving side: answer the ping-pongs with the synchronized clock, keep it.
  (void)co_await learn_clock_model(view, ref_pos, client_pos, *clk, oalg, policy.sync);
  co_return SyncResult{std::move(clk), SyncReport{}};
}

}  // namespace hcs::clocksync
