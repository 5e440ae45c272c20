// Host time for measurements about the simulator, never inside it.
//
// The only translation unit outside benchmark/ that reads a host clock
// (every other target is compiled with util/poison.hpp).  Its library,
// hcs_host_clock, is linked by bench_scale (events/s), test_sim (a perf
// guard and the clock's own test) and hcs_lint (--stats) only: that link
// list is the allowlist.
#pragma once

namespace hcs::util {

/// Seconds on the host's monotonic clock, from an arbitrary epoch.
double host_seconds();

}  // namespace hcs::util
