#include "clocksync/service.hpp"

#include <algorithm>
#include <cstdio>

#include "clocksync/factory.hpp"
#include "clocksync/membership.hpp"
#include "clocksync/resync.hpp"
#include "clocksync/skampi_offset.hpp"

namespace hcs::clocksync {

namespace {

struct AgendaItem {
  sim::Time at = 0.0;
  bool serve = false;   // false = resync round, true = serve a re-admission
  ReadmitEvent event;   // valid when serve
};

std::string fault_spec(const char* kind, int rank, double at) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s:rank=%d,at=%.6fs", kind, rank, at);
  return buf;
}

}  // namespace

sim::Task<void> service_rank(const ServiceParams& params, ServiceLog& log, simmpi::RankCtx& ctx) {
  simmpi::World& world = ctx.world();
  const fault::FaultInjector* fault = world.fault_injector();
  sim::Simulation& s = ctx.sim();
  const int me = ctx.rank();
  const sim::Time entry = s.now();
  const int inc = fault != nullptr ? fault->incarnation(me, entry) : 0;
  const sim::Time my_end =
      std::min(fault != nullptr ? fault->next_down(me, entry) : sim::kTimeInfinity,
               params.duration);

  ResyncManager mgr(make_sync(params.label), params.interval);
  SKaMPIOffset oalg(params.accuracy_exchanges);
  ReadmitPolicy policy;
  SyncResult first;
  if (inc == 0) {
    simmpi::Comm view = simmpi::Comm::view_comm(world, me, entry);
    first = co_await mgr.tick(view, ctx.base_clock());
  } else {
    // Returning incarnation: exactly the rank's own sub-phase of the tree,
    // then adopt the re-admitted clock into the periodic cadence.
    const ReadmitEvent event{entry, me, inc};
    simmpi::Comm view = simmpi::Comm::view_comm(world, me, entry);
    first = co_await readmit(view, event, ctx.base_clock(), oalg, policy);
    log.reconverge.push_back(s.now() - entry);
    mgr.adopt(first, first.clock->at_exact(s.now()) + params.interval);
  }
  if (!first.report.clean()) ++log.unclean_syncs;
  vclock::ClockPtr clock = first.clock;
  log.history.push_back({s.now(), clock});

  std::vector<AgendaItem> agenda;
  for (const ReadmitEvent& ev : readmit_schedule(world)) {
    if (ev.rank == me || ev.at < entry || ev.at >= my_end) continue;
    if (readmit_reference(world, ev) != me) continue;
    agenda.push_back({ev.at, true, ev});
  }
  for (sim::Time r = params.interval; r < my_end; r += params.interval) {
    if (r <= entry) continue;
    agenda.push_back({r, false, {}});
  }
  std::sort(agenda.begin(), agenda.end(), [](const AgendaItem& a, const AgendaItem& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.serve != b.serve) return a.serve;  // serve before the round at ties
    return a.event.rank < b.event.rank;
  });

  for (const AgendaItem& item : agenda) {
    if (s.now() < item.at) co_await s.delay(item.at - s.now());
    world.check_crash(me);
    if (item.serve) {
      // The serving side keeps its clock, and its report is always clean.
      simmpi::Comm view = simmpi::Comm::view_comm(world, me, item.event.at);
      (void)co_await readmit(view, item.event, clock, oalg, policy);
    } else {
      const int before = mgr.resyncs();
      simmpi::Comm view = simmpi::Comm::view_comm(world, me, item.at);
      const SyncResult res = co_await mgr.tick(view, ctx.base_clock());
      if (mgr.resyncs() != before) {
        clock = res.clock;
        if (!res.report.clean()) ++log.unclean_syncs;
        log.history.push_back({s.now(), clock});
      }
    }
  }
  log.resyncs = mgr.resyncs();
  if (my_end < params.duration) {
    // This incarnation departs before the service window ends: run up to
    // the departure instant so the churn supervisor sees the crash and can
    // schedule the next incarnation (a program that returns early would
    // leave the remaining plan armed but unfired).
    if (s.now() < my_end) co_await s.delay(my_end - s.now());
    world.check_crash(me);
  }
}

topology::MachineConfig service_machine() {
  topology::MachineConfig machine = topology::testbox(8, 1);
  machine.clocks.initial_offset_abs = 5e-3;
  machine.clocks.base_skew_abs = 2e-6;
  machine.clocks.skew_walk_sd = 0.005e-6;
  return machine;
}

void add_service_churn(fault::FaultPlan& plan, double duration) {
  const double d = duration;
  plan.add(fault_spec("leave", 5, 0.15 * d + 1.3));
  plan.add(fault_spec("rejoin", 5, 0.25 * d + 2.7));
  plan.add(fault_spec("leave", 2, 0.45 * d + 0.9));
  plan.add(fault_spec("rejoin", 2, 0.50 * d + 1.1));
  plan.add(fault_spec("leave", 5, 0.70 * d + 0.5));
  plan.add(fault_spec("rejoin", 5, 0.72 * d + 1.7));
}

}  // namespace hcs::clocksync
