// Compile fixture: a Task or an awaiter dropped on the floor is destroyed
// before it runs.  sim::Task and Simulation::delay's awaiter are
// [[nodiscard]] and every target builds with -Werror=unused-result, so each
// annotated line fails to compile in every build type.
#include "sim/simulation.hpp"
#include "simmpi/collectives.hpp"
#include "simmpi/comm.hpp"

namespace fixture {

hcs::sim::Task<void> fire_and_forget(hcs::simmpi::Comm& comm) {
  comm.send(1, 0, {3.5});  // expect-error
  barrier(comm);  // expect-error
  co_return;
}

void sync_context(hcs::sim::Simulation& s) {
  s.delay(0.25);  // expect-error
}

}  // namespace fixture
