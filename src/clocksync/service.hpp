// The clock service loop (paper §II, §III-C2): a linear clock model holds
// for only about 20 s, so a long-running service re-synchronizes on a fixed
// cadence.  Each rank runs service_rank for the whole service window: the
// start-up sync, periodic resyncs (ResyncManager), and under churn the
// re-admission sub-phases it serves or, after a restart, its own
// (clocksync/membership).  bench_service drives it as the product soak, and
// tests/scale gates its memory over simulated time.
#pragma once

#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "simmpi/world.hpp"
#include "topology/presets.hpp"
#include "vclock/clock.hpp"

namespace hcs::clocksync {

struct ServiceParams {
  std::string label;      // sync algorithm label (clocksync::make_sync)
  double duration = 0.0;  // simulated seconds of service
  double interval = 0.0;  // resync cadence
  int accuracy_exchanges = 8;
};

/// One installed clock model of one rank: everything the host needs to
/// answer "what would this rank have said at time t, and how stale was it".
struct ClockEpoch {
  sim::Time at = 0.0;  // install instant (sync, resync or re-admission)
  vclock::ClockPtr clock;
};

/// What one rank's service produced, across all its incarnations.
struct ServiceLog {
  std::vector<ClockEpoch> history;  // in install order
  std::vector<double> reconverge;   // per rejoin: restart instant -> re-admitted clock
  int resyncs = 0;                  // of the last incarnation
  int unclean_syncs = 0;            // installed clocks whose SyncReport was not kOk
};

/// One incarnation of one rank's service.  The rank's agenda (resync rounds
/// on the global cadence plus the re-admissions it serves) is a pure
/// function of the fault plan, so every rank computes a mutually consistent
/// schedule without messages.
sim::Task<void> service_rank(const ServiceParams& params, ServiceLog& log, simmpi::RankCtx& ctx);

/// bench_service's machine: 8 single-core testbox nodes whose clocks start up
/// to 5 ms apart and drift up to 2 ppm.
topology::MachineConfig service_machine();

/// Appends bench_service's default churn plan for a `duration`-second window
/// to `plan`: rank 5 leaves and rejoins twice (three incarnations) and rank 2
/// once, at fixed fractions of the window offset off the resync cadence.
void add_service_churn(fault::FaultPlan& plan, double duration);

}  // namespace hcs::clocksync
