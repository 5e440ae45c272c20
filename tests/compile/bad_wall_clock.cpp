// Compile fixture: host time sources in simulated code.  util/poison.hpp
// poisons every clock name, so each annotated line fails to compile.
#include <chrono>
#include <ctime>
#include <sys/time.h>

namespace fixture {

double host_now() {
  const auto t0 = std::chrono::steady_clock::now();  // expect-error
  (void)t0;
  struct timeval tv;
  gettimeofday(&tv, nullptr);  // expect-error
  return static_cast<double>(tv.tv_sec);
}

double host_monotonic() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);  // expect-error
  return static_cast<double>(ts.tv_sec);
}

using WallClock = std::chrono::system_clock;  // expect-error
using FastClock = std::chrono::high_resolution_clock;  // expect-error

}  // namespace fixture
