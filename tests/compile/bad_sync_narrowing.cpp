// Compile fixture: a SyncResult does not narrow to its clock.  It has no
// conversion to vclock::ClockPtr and no * or ->, so a caller has to name
// .clock beside .report, and each annotated line fails to compile.  Reading
// only .clock is hcs-lint's ip-unchecked-sync-result finding.
#include "clocksync/sync_algorithm.hpp"
#include "sim/task.hpp"
#include "simmpi/comm.hpp"
#include "vclock/clock.hpp"

namespace fixture {

using hcs::clocksync::SyncResult;
using hcs::vclock::ClockPtr;

hcs::sim::Task<void> assign(hcs::clocksync::ClockSync& sync, hcs::simmpi::Comm& comm,
                            ClockPtr installed) {
  installed = co_await sync.sync_clocks(comm, installed);  // expect-error
}

double dereference(const SyncResult& res) {
  return (*res).at_exact(0.0);  // expect-error
}

double arrow(const SyncResult& res) {
  return res->at_exact(0.0);  // expect-error
}

}  // namespace fixture
