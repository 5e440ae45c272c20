// Compile prefix of every target built from src/, bench/, examples/, tests/
// and tools/ (CMakeLists.txt precompiles it once, as hcs_prefix, and every
// such target reuses that header).  It makes two determinism hazards compile
// errors: reading a host clock and drawing randomness that does not derive
// from the run seed.  Byte-identical goldens and replayable recordings depend
// on both staying out of simulated code.
//
// `#pragma GCC poison` rejects every later use of a name, wherever it
// appears, so the standard headers that mention these names are included
// first: <bits/stdc++.h> for the C++ library (<algorithm> names std::rand),
// the C headers for the global rand, srand, gettimeofday and clock_gettime.
// default_random_engine is the one standard engine whose sequence is
// implementation-defined; seeded std::mt19937_64 stays legal.
//
// Host timing that is not simulated (bench_scale's events/s, a test's perf
// guard) reads util::host_seconds() from the one
// unpoisoned library, hcs_host_clock, whose link list is the allowlist.
#pragma once

#include <bits/stdc++.h>
#include <stdlib.h>
#include <sys/time.h>
#include <time.h>

#pragma GCC poison steady_clock system_clock high_resolution_clock random_device rand srand
#pragma GCC poison gettimeofday clock_gettime default_random_engine
