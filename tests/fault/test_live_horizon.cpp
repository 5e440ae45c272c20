// Property test for FaultInjector::live_until, the liveness horizon that
// lets a ping-pong burst skip the exact crash-delivery rule.
//
// Seeded random crash, churn and link-cut plans; every time is a whole
// millisecond, so the sampled instants hit down-interval boundaries and cut
// times exactly.  For every pair (a, b), start t0, send >= t0 and
// arrive >= send with arrive < live_until(a, b, t0), crash_delivered must
// hold in both directions.  The horizon is also tight: a message arriving
// exactly at a finite horizon after t0 is rejected, and a rank already down
// at t0 puts the horizon at or before t0.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "sim/rng.hpp"

namespace hcs::fault {
namespace {

constexpr int kRanks = 6;
constexpr int kSpanMs = 400;  // plan events fall in [1, kSpanMs) ms

std::string at_ms(int ms) { return ",at=" + std::to_string(ms) + "ms"; }

// Distinct sorted event times in [1, kSpanMs).
std::vector<int> sorted_times(sim::Rng& rng, int n) {
  std::vector<int> out;
  while (static_cast<int>(out.size()) < n) {
    const int t = 1 + static_cast<int>(rng.uniform_index(kSpanMs - 1));
    if (std::find(out.begin(), out.end(), t) == out.end()) out.push_back(t);
  }
  std::sort(out.begin(), out.end());
  return out;
}

FaultPlan random_plan(std::uint64_t seed) {
  sim::Rng rng(seed);
  FaultPlan plan;
  for (int r = 0; r < kRanks; ++r) {
    const std::string rank = "rank=" + std::to_string(r);
    switch (rng.uniform_index(5)) {
      case 0: break;  // never goes down
      case 1: plan.add("crash:" + rank + at_ms(sorted_times(rng, 1)[0])); break;
      case 2: {  // two leave/rejoin cycles
        const std::vector<int> t = sorted_times(rng, 4);
        plan.add("leave:" + rank + at_ms(t[0]));
        plan.add("rejoin:" + rank + at_ms(t[1]));
        plan.add("leave:" + rank + at_ms(t[2]));
        plan.add("rejoin:" + rank + at_ms(t[3]));
        break;
      }
      case 3: {  // late joiner that later leaves for good
        const std::vector<int> t = sorted_times(rng, 2);
        plan.add("join:" + rank + at_ms(t[0]));
        plan.add("leave:" + rank + at_ms(t[1]));
        break;
      }
      default: {  // leaves, comes back, then crashes
        const std::vector<int> t = sorted_times(rng, 3);
        plan.add("leave:" + rank + at_ms(t[0]));
        plan.add("rejoin:" + rank + at_ms(t[1]));
        plan.add("crash:" + rank + at_ms(t[2]));
        break;
      }
    }
  }
  for (int cuts = static_cast<int>(rng.uniform_index(4)); cuts > 0; --cuts) {
    const int a = static_cast<int>(rng.uniform_index(kRanks));
    const int b = (a + 1 + static_cast<int>(rng.uniform_index(kRanks - 1))) % kRanks;
    plan.add("crashlink:rank=" + std::to_string(a) + ",peer=" + std::to_string(b) +
             at_ms(sorted_times(rng, 1)[0]));
  }
  return plan;
}

TEST(LiveHorizon, MessagesBeforeTheHorizonAreDelivered) {
  long checked = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const FaultInjector inj(random_plan(seed), seed, kRanks);
    sim::Rng rng(seed * 7919);
    for (int a = 0; a < kRanks; ++a) {
      for (int b = 0; b < kRanks; ++b) {
        if (a == b) continue;
        for (int t0_ms = 0; t0_ms <= kSpanMs; t0_ms += 7) {
          const sim::Time t0 = t0_ms * 1e-3;
          const sim::Time horizon = inj.live_until(a, b, t0);
          if (inj.is_down(a, t0) || inj.is_down(b, t0)) {
            EXPECT_LE(horizon, t0) << "seed " << seed << " pair " << a << "," << b;
            continue;
          }
          if (horizon <= t0) continue;  // the link is already cut
          // Tight: a message sent at t0 that lands exactly on a finite
          // horizon hits a down interval's begin or the link cut.
          if (std::isfinite(horizon)) {
            EXPECT_FALSE(inj.crash_delivered(a, b, t0, horizon)) << "seed " << seed;
          }
          const sim::Time limit = std::min(horizon, (kSpanMs + 50) * 1e-3);
          for (int k = 0; k < 12; ++k) {
            const sim::Time send = t0 + rng.uniform() * (limit - t0);
            // Sampled arrivals, plus the last instant before the horizon.
            const sim::Time arrive =
                k == 0 ? std::nextafter(limit, 0.0) : send + rng.uniform() * (limit - send);
            if (arrive < send || arrive >= horizon) continue;
            ASSERT_TRUE(inj.crash_delivered(a, b, send, arrive))
                << "seed " << seed << ": " << a << " -> " << b << " t0 " << t0 << " send "
                << send << " arrive " << arrive << " horizon " << horizon;
            ASSERT_TRUE(inj.crash_delivered(b, a, send, arrive)) << "seed " << seed;
            ++checked;
          }
        }
      }
    }
  }
  // The plans leave most pairs live for most of the span.
  EXPECT_GT(checked, 100000);
}

// Without any crash, churn or cut, the horizon never ends.
TEST(LiveHorizon, InfiniteWithoutLifecycleFaults) {
  FaultPlan plan;
  plan.add("drop:p=0.1");
  const FaultInjector inj(plan, 3, kRanks);
  EXPECT_EQ(inj.live_until(0, 5, 0.0), sim::kTimeInfinity);
  EXPECT_EQ(inj.live_until(2, 1, 1e6), sim::kTimeInfinity);
}

// Each of the three sources bounds the horizon: either rank's next down
// interval, and the link cut.
TEST(LiveHorizon, EarliestOfBothRanksAndTheLink) {
  FaultPlan plan;
  plan.add("leave:rank=1,at=10ms");
  plan.add("rejoin:rank=1,at=20ms");
  plan.add("crash:rank=2,at=30ms");
  plan.add("crashlink:rank=3,peer=1,at=25ms");
  const FaultInjector inj(plan, 0, 4);
  EXPECT_DOUBLE_EQ(inj.live_until(0, 1, 0.0), 10e-3);
  EXPECT_LE(inj.live_until(0, 1, 15e-3), 15e-3);  // rank 1 is down
  EXPECT_EQ(inj.live_until(0, 1, 20e-3), sim::kTimeInfinity);
  EXPECT_DOUBLE_EQ(inj.live_until(2, 0, 0.0), 30e-3);
  EXPECT_DOUBLE_EQ(inj.live_until(1, 3, 20e-3), 25e-3);
  EXPECT_DOUBLE_EQ(inj.live_until(2, 1, 5e-3), 10e-3);
}

}  // namespace
}  // namespace hcs::fault
