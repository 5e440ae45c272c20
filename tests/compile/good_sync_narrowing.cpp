// Compile fixture: the caller names .clock and consults .report before
// trusting it.  Compiles with no diagnostic.
#include "clocksync/sync_algorithm.hpp"
#include "sim/task.hpp"
#include "simmpi/comm.hpp"
#include "vclock/clock.hpp"

namespace fixture {

using hcs::clocksync::SyncResult;
using hcs::vclock::ClockPtr;

hcs::sim::Task<void> install(hcs::clocksync::ClockSync& sync, hcs::simmpi::Comm& comm,
                             ClockPtr installed) {
  const SyncResult res = co_await sync.sync_clocks(comm, installed);
  if (res.report.clean()) installed = res.clock;
}

double read(const SyncResult& res) {
  return res.report.clean() ? res.clock->at_exact(0.0) : 0.0;
}

}  // namespace fixture
