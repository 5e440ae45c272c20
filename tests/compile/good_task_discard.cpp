// Compile fixture: every Task and awaiter is awaited, stored or spawned.
// Compiles with no diagnostic.
#include <utility>
#include <vector>

#include "sim/simulation.hpp"
#include "simmpi/collectives.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/message.hpp"

namespace fixture {

hcs::sim::Task<void> awaited(hcs::simmpi::Comm& comm, hcs::sim::Simulation& s) {
  // Not {3.5}: GCC 12 rejects a braced list inside a co_await operand.
  co_await comm.send(1, 0, std::vector<double>(1, 3.5));
  auto pending = comm.recv(1, 0);
  const hcs::simmpi::Message m = co_await std::move(pending);
  (void)m;
  co_await barrier(comm);
  co_await s.delay(0.25);
}

void spawned(hcs::sim::Simulation& s, hcs::simmpi::Comm& comm) {
  s.spawn(comm.send(1, 0, {2.0}));
}

// A declaration is not a discarded call.
hcs::sim::Task<void> send(hcs::simmpi::Comm& comm, int peer);

}  // namespace fixture
