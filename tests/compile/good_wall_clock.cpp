// Compile fixture: simulated code reads time from the Simulation; chrono
// *types* without a clock source are fine too.  Compiles with no diagnostic.
#include <chrono>

#include "sim/simulation.hpp"

namespace fixture {

double sample(const hcs::sim::Simulation& s) { return s.now(); }

// Durations and time_points are deterministic values, not clock reads.
std::chrono::nanoseconds budget() { return std::chrono::nanoseconds(100); }

}  // namespace fixture
