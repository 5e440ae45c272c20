// Tests for the ping-pong burst fast path, including its statistical
// equivalence with an explicit message-level ping-pong (DESIGN.md §4.3).
#include <gtest/gtest.h>

#include "util/vec.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "sim/async.hpp"
#include "simmpi/collectives.hpp"
#include "simmpi/comm.hpp"
#include "topology/presets.hpp"
#include "util/stats.hpp"
#include "vclock/global_clock.hpp"

namespace hcs::simmpi {
namespace {

TEST(Burst, ProducesRequestedExchanges) {
  World w(topology::testbox(2, 1), 5);
  BurstResult client_result, ref_result;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    auto res = co_await ctx.comm_world().pingpong_burst(1 - ctx.rank(), ctx.rank() == 1, *clk, 25);
    if (ctx.rank() == 1) client_result = std::move(res);
    else ref_result = std::move(res);
  });
  EXPECT_EQ(client_result.samples.size(), 25u);
  EXPECT_EQ(ref_result.samples.size(), 25u);  // both sides observe the same schedule
}

TEST(Burst, TimestampsAreOrderedPerExchange) {
  World w(topology::testbox(2, 1), 7);
  BurstResult result;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    auto res = co_await ctx.comm_world().pingpong_burst(1 - ctx.rank(), ctx.rank() == 1, *clk, 50);
    if (ctx.rank() == 1) result = std::move(res);
  });
  for (const PingSample& s : result.samples) {
    // The client's receive strictly follows its send (same clock).
    EXPECT_GT(s.client_recv, s.client_send);
  }
}

TEST(Burst, RttConsistentWithNetworkModel) {
  const auto machine = topology::testbox(2, 1);
  World w(machine, 9);
  BurstResult result;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    auto res = co_await ctx.comm_world().pingpong_burst(1 - ctx.rank(), ctx.rank() == 1, *clk, 200);
    if (ctx.rank() == 1) result = std::move(res);
  });
  std::vector<double> rtts;
  for (const PingSample& s : result.samples) rtts.push_back(s.client_recv - s.client_send);
  // RTT >= 2 * (base one-way) + turnaround overheads.
  const double floor = 2 * machine.net.inter_node.base_latency;
  EXPECT_GT(util::min(rtts), floor);
  EXPECT_LT(util::mean(rtts), floor + 10e-6);
}

TEST(Burst, AdvancesSimulationTimeForBothSides) {
  World w(topology::testbox(2, 1), 11);
  sim::Time client_end = 0, ref_end = 0;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    co_await ctx.comm_world().pingpong_burst(1 - ctx.rank(), ctx.rank() == 1, *clk, 100);
    if (ctx.rank() == 1) client_end = ctx.sim().now();
    else ref_end = ctx.sim().now();
  });
  EXPECT_GT(client_end, 100 * 2 * 1.0e-6);  // 100 round trips
  EXPECT_GT(client_end, ref_end);           // ref finishes at its last reply
}

TEST(Burst, BackToBackBurstsWork) {
  World w(topology::testbox(2, 1), 13);
  int client_total = 0;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    for (int i = 0; i < 10; ++i) {
      auto res =
          co_await ctx.comm_world().pingpong_burst(1 - ctx.rank(), ctx.rank() == 1, *clk, 5);
      if (ctx.rank() == 1) client_total += static_cast<int>(res.samples.size());
    }
  });
  EXPECT_EQ(client_total, 50);
}

TEST(Burst, ConcurrentPairsDoNotInterfere) {
  World w(topology::testbox(2, 2), 15);  // ranks 0,1 on node 0; 2,3 on node 1
  std::vector<int> counts(4, 0);
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    const int partner = ctx.rank() ^ 2;  // pairs (0,2) and (1,3)
    auto res = co_await ctx.comm_world().pingpong_burst(partner, ctx.rank() >= 2, *clk, 20);
    counts[static_cast<std::size_t>(ctx.rank())] = static_cast<int>(res.samples.size());
  });
  for (int c : counts) EXPECT_EQ(c, 20);
}

TEST(Burst, MismatchedRolesRejected) {
  World w(topology::testbox(2, 1), 17);
  w.launch([](RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    // Both claim to be the client.
    co_await ctx.comm_world().pingpong_burst(1 - ctx.rank(), true, *clk, 5);
  });
  EXPECT_THROW(w.run(), std::logic_error);
}

// A burst blocks like MPI_Sendrecv, so a rank has one burst slot: a second
// burst started while the first is in flight is a program error.
TEST(Burst, SecondConcurrentBurstFromOneRankRaises) {
  World w(topology::testbox(2, 1), 23);
  w.launch([](RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    Comm& comm = ctx.comm_world();
    if (ctx.rank() == 0) {
      auto first = sim::async(ctx.sim(), comm.pingpong_burst(1, false, *clk, 5));
      co_await comm.pingpong_burst(1, false, *clk, 5);
      co_await first;
    } else {
      co_await comm.pingpong_burst(0, true, *clk, 5);
    }
  });
  try {
    w.run();
    ADD_FAILURE() << "a second concurrent burst was accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 0"), std::string::npos) << e.what();
  }
}

// Cross-node halves under a crash plan, one rank per node.  Rank 0 parks a
// burst with rank 1 and crashes, so its timer fires.  At that same instant
// rank 1 calls its burst with rank 0 (still alive in its view): it must not
// pair with the withdrawn half, and its own timer fires once it declares
// rank 0 dead.  Right then, in the same window, rank 1 bursts with rank 2,
// which has been parked since t = 0: that burst pairs.  The run ends with
// no half parked (World::run's audit would raise).
TEST(Burst, TimedOutCrossNodeHalfNeverPairsButItsRankBurstsAgain) {
  constexpr double kCrashAt = 1e-3;
  fault::FaultSpec crash;
  crash.kind = fault::FaultKind::kCrash;
  crash.rank = 0;
  crash.at = kCrashAt;
  fault::FaultPlan plan;
  plan.add(crash);
  World w(topology::testbox(3, 1), 29, plan);
  const double declared_dead = w.failure_detector()->detect_time_after(1, 0, 0.0);
  ASSERT_GT(declared_dead, kCrashAt);
  BurstResult withdrawn_partner, next_burst, third_rank;
  sim::Time next_start = -1.0;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    Comm& comm = ctx.comm_world();
    if (ctx.rank() == 0) {
      co_await comm.pingpong_burst(1, true, *clk, 5);  // crashes while parked
    } else if (ctx.rank() == 1) {
      co_await ctx.sim().delay(kCrashAt);
      withdrawn_partner = co_await comm.pingpong_burst(0, false, *clk, 5);
      next_start = ctx.sim().now();
      next_burst = co_await comm.pingpong_burst(2, true, *clk, 5);
    } else {
      third_rank = co_await comm.pingpong_burst(1, false, *clk, 5);
    }
  });
  EXPECT_EQ(withdrawn_partner.requested, 5);
  EXPECT_EQ(withdrawn_partner.lost, 5);
  EXPECT_TRUE(withdrawn_partner.samples.empty());
  EXPECT_EQ(next_start, declared_dead);
  EXPECT_EQ(next_burst.samples.size(), 5u);
  EXPECT_EQ(next_burst.lost, 0);
  EXPECT_EQ(third_rank.samples.size(), 5u);
}

// As above, but rank 1's half with the crashed rank 0 parks and times out
// within one window, so the drain never sees it.  Rank 1's next two bursts
// with rank 2, the first parked in that same window, both pair.
TEST(Burst, HalfParkedAndTimedOutInOneWindowLeavesNoTrace) {
  fault::FaultSpec crash;
  crash.kind = fault::FaultKind::kCrash;
  crash.rank = 0;
  crash.at = 1e-3;
  fault::FaultPlan plan;
  plan.add(crash);
  World w(topology::testbox(3, 1), 31, plan);
  const double declared_dead = w.failure_detector()->detect_time_after(1, 0, 0.0);
  const double park_at = declared_dead - 0.5 * w.lookahead();
  ASSERT_GT(park_at, 1e-3);
  BurstResult timed_out;
  std::vector<BurstResult> paired(4);
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    Comm& comm = ctx.comm_world();
    if (ctx.rank() == 1) {
      co_await ctx.sim().delay(park_at);
      timed_out = co_await comm.pingpong_burst(0, true, *clk, 5);
      paired[0] = co_await comm.pingpong_burst(2, true, *clk, 5);
      paired[1] = co_await comm.pingpong_burst(2, true, *clk, 5);
    } else if (ctx.rank() == 2) {
      paired[2] = co_await comm.pingpong_burst(1, false, *clk, 5);
      paired[3] = co_await comm.pingpong_burst(1, false, *clk, 5);
    }
  });
  EXPECT_EQ(timed_out.lost, 5);
  EXPECT_TRUE(timed_out.samples.empty());
  for (const BurstResult& r : paired) {
    EXPECT_EQ(r.samples.size(), 5u);
    EXPECT_EQ(r.lost, 0);
  }
}

TEST(Burst, RefTimestampReflectsRefClockOffset) {
  // Give the two nodes' clocks wildly different offsets; t_last must live on
  // the reference's clock, so (t_last - client mid-time) ~ ref-client offset.
  auto machine = topology::testbox(2, 1);
  machine.clocks.initial_offset_abs = 50e-3;
  machine.clocks.base_skew_abs = 0.0;
  machine.clocks.skew_walk_sd = 0.0;
  machine.clocks.read_noise_sd = 0.0;
  World w(machine, 19);
  const double off0 = w.base_clock(0)->at_exact(0.0);
  const double off1 = w.base_clock(1)->at_exact(0.0);
  BurstResult result;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    auto res = co_await ctx.comm_world().pingpong_burst(1 - ctx.rank(), ctx.rank() == 1, *clk, 30);
    if (ctx.rank() == 1) result = std::move(res);
  });
  std::vector<double> observed;
  for (const PingSample& s : result.samples) {
    observed.push_back(s.ref_reply - 0.5 * (s.client_send + s.client_recv));
  }
  EXPECT_NEAR(util::median(observed), off0 - off1, 5e-6);
}

// Statistical equivalence with an explicit message-level ping-pong.
TEST(Burst, MatchesMessageLevelPingPongDistribution) {
  const auto machine = topology::testbox(2, 1);

  // Message-level RTTs.
  std::vector<double> msg_rtts;
  {
    World w(machine, 21);
    w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
      Comm& comm = ctx.comm_world();
      auto clk = ctx.base_clock();
      for (int i = 0; i < 400; ++i) {
        if (ctx.rank() == 1) {
          const double t0 = clk->now();
          co_await comm.send(0, i, util::vec(t0));
          co_await comm.recv(0, 10000 + i);
          msg_rtts.push_back(clk->now() - t0);
        } else {
          co_await comm.recv(1, i);
          co_await comm.send(1, 10000 + i, util::vec(clk->now()));
        }
      }
    });
  }

  // Burst RTTs.
  std::vector<double> burst_rtts;
  {
    World w(machine, 22);
    w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
      auto clk = ctx.base_clock();
      auto res =
          co_await ctx.comm_world().pingpong_burst(1 - ctx.rank(), ctx.rank() == 1, *clk, 400);
      if (ctx.rank() == 1) {
        for (const PingSample& s : res.samples) burst_rtts.push_back(s.client_recv - s.client_send);
      }
    });
  }

  ASSERT_EQ(msg_rtts.size(), 400u);
  ASSERT_EQ(burst_rtts.size(), 400u);
  // Means within 15% and medians within 15%: same latency model.
  EXPECT_NEAR(util::mean(burst_rtts) / util::mean(msg_rtts), 1.0, 0.15);
  EXPECT_NEAR(util::median(burst_rtts) / util::median(msg_rtts), 1.0, 0.15);
}

}  // namespace
}  // namespace hcs::simmpi
