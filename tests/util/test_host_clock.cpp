// util::host_seconds, the one host-clock read outside benchmark/.  It lives
// in test_sim because that binary already links hcs_host_clock.
#include "util/host_clock.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace hcs::util {
namespace {

TEST(HostClock, ReadsAreFiniteAndNeverGoBackward) {
  double last = host_seconds();
  ASSERT_TRUE(std::isfinite(last));
  bool advanced = false;
  for (int i = 0; i < 1000000 && !advanced; ++i) {
    const double now = host_seconds();
    ASSERT_GE(now, last) << "read " << i << " went backward";
    advanced = now > last;
    last = now;
  }
  EXPECT_TRUE(advanced) << "a million reads never advanced the clock";
}

}  // namespace
}  // namespace hcs::util
