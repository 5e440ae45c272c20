// Property tests for the network/clock stack under an active FaultPlan.
//
// Delay-only plans (reorder/burst/straggler, no drops) must preserve full
// message-passing semantics: conservation (every payload arrives exactly
// once), completion, and FIFO per channel.  Plans with drops must never
// deadlock — the reliable transport retransmits, collectives stay data-
// correct, and the sync layer terminates with honest degraded/failed
// reports.  Everything stays byte-reproducible for any --jobs value.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "clocksync/factory.hpp"
#include "fault/fault_plan.hpp"
#include "runner/trial_runner.hpp"
#include "simmpi/collectives.hpp"
#include "simmpi/world.hpp"
#include "topology/presets.hpp"
#include "trace/metrics.hpp"

namespace hcs::fault {
namespace {

FaultPlan delay_only_plan() {
  FaultPlan plan;
  plan.add("reorder:p=0.3,delay=100us");
  plan.add("burst:period=5ms,duration=1ms,delay=200us");
  plan.add("straggler:rank=1,factor=3");
  return plan;
}

FaultPlan droppy_plan(double p) {
  FaultPlan plan;
  plan.add("drop:p=" + std::to_string(p));
  plan.add("duplicate:p=0.1");
  plan.add("reorder:p=0.2,delay=50us");
  return plan;
}

// ---------------------------------------------------------- delay-only ----

TEST(FaultPropertiesDelayOnly, PointToPointConservesAndOrdersPerChannel) {
  // Every rank streams numbered payloads to every other rank on a shared
  // tag; despite reordering faults, each channel must deliver exactly the
  // sent sequence, in order (holdback restores FIFO).
  constexpr int kMessages = 40;
  simmpi::World w(topology::testbox(2, 2), 7, delay_only_plan());
  const int p = w.size();
  std::vector<std::vector<double>> received(
      static_cast<std::size_t>(p * p));  // [src * p + dst] payload sequence
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    simmpi::Comm& comm = ctx.comm_world();
    const int me = ctx.rank();
    for (int dst = 0; dst < p; ++dst) {
      if (dst == me) continue;
      for (int i = 0; i < kMessages; ++i) {
        std::vector<double> payload(1, static_cast<double>(me * 1000 + i));
        comm.isend(dst, 42, std::move(payload));
      }
    }
    for (int src = 0; src < p; ++src) {
      if (src == me) continue;
      for (int i = 0; i < kMessages; ++i) {
        const simmpi::Message msg = co_await comm.recv(src, 42);
        EXPECT_EQ(msg.data.size(), 1u);  // EXPECT: ASSERT cannot `return` from a coroutine
        received[static_cast<std::size_t>(src * p + me)].push_back(msg.data.at(0));
      }
    }
  });
  for (int src = 0; src < p; ++src) {
    for (int dst = 0; dst < p; ++dst) {
      if (src == dst) continue;
      const auto& seq = received[static_cast<std::size_t>(src * p + dst)];
      ASSERT_EQ(seq.size(), static_cast<std::size_t>(kMessages)) << src << "->" << dst;
      for (int i = 0; i < kMessages; ++i) {
        EXPECT_EQ(seq[static_cast<std::size_t>(i)], src * 1000 + i)
            << src << "->" << dst << " position " << i;
      }
    }
  }
}

TEST(FaultPropertiesDelayOnly, CollectivesStayCorrect) {
  simmpi::World w(topology::testbox(4, 2), 13, delay_only_plan());
  const int p = w.size();
  int checked = 0;
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    simmpi::Comm& comm = ctx.comm_world();
    const double me = ctx.rank();

    std::vector<double> sum_in(1, me);
    const std::vector<double> sum = co_await simmpi::allreduce(comm, std::move(sum_in));
    EXPECT_DOUBLE_EQ(sum.at(0), p * (p - 1) / 2.0);

    std::vector<double> gather_in(1, me);
    const std::vector<double> gathered = co_await simmpi::gather(comm, std::move(gather_in));
    if (ctx.rank() == 0) {
      EXPECT_EQ(gathered.size(), static_cast<std::size_t>(p));
      for (int r = 0; r < p && r < static_cast<int>(gathered.size()); ++r) {
        EXPECT_DOUBLE_EQ(gathered[static_cast<std::size_t>(r)], r);
      }
    }

    std::vector<double> bcast_in;
    if (ctx.rank() == 0) bcast_in = {3.5, -1.25};
    const std::vector<double> bc = co_await simmpi::bcast(comm, std::move(bcast_in));
    EXPECT_EQ(bc.size(), 2u);
    EXPECT_DOUBLE_EQ(bc.at(0), 3.5);
    EXPECT_DOUBLE_EQ(bc.at(1), -1.25);

    co_await simmpi::barrier(comm);
    ++checked;
  });
  EXPECT_EQ(checked, p);  // every rank completed the full collective chain
}

// --------------------------------------------------------------- drops ----

TEST(FaultPropertiesDrops, CollectivesCompleteAndStayCorrect) {
  // 10% drop + duplicates + reordering: the reliable transport must
  // retransmit through it; payloads still arrive exactly once and reduced
  // values are exact.
  trace::MetricsRegistry metrics;
  const trace::ScopedMetrics install(&metrics);
  int p = 0;
  int completed = 0;
  {
    simmpi::World w(topology::testbox(4, 2), 19, droppy_plan(0.1));
    p = w.size();
    w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
      simmpi::Comm& comm = ctx.comm_world();
      const double me = ctx.rank();
      for (int round = 0; round < 3; ++round) {
        std::vector<double> in(1, me + round);
        const std::vector<double> sum = co_await simmpi::allreduce(comm, std::move(in));
        EXPECT_DOUBLE_EQ(sum.at(0), p * (p - 1) / 2.0 + p * round);
        co_await simmpi::barrier(comm);
      }
      ++completed;
    });
  }  // a sharded World folds its counters into `metrics` here
  ASSERT_GT(metrics.counter("fault.net.drops").value(), 0u)
      << "plan injected no drops; test is vacuous";
  EXPECT_EQ(completed, p);
}

TEST(FaultPropertiesDrops, SyncTerminatesAndReportsDegradedRanks) {
  // At a 25% drop rate whole bursts go missing; every algorithm must still
  // terminate and at least one client must own up to a non-clean report.
  for (const char* label : {"hca3/30/skampi_offset/8", "jk/30/skampi_offset/8"}) {
    simmpi::World w(topology::testbox(2, 2), 29, droppy_plan(0.25));
    const int p = w.size();
    std::vector<clocksync::SyncResult> results(static_cast<std::size_t>(p));
    w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
      auto sync = clocksync::make_sync(label);
      results[static_cast<std::size_t>(ctx.rank())] =
          co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
    });
    int unclean = 0;
    for (const clocksync::SyncResult& res : results) {
      ASSERT_NE(res.clock, nullptr) << label;
      if (!res.report.clean()) ++unclean;
    }
    EXPECT_GT(unclean, 0) << label << ": heavy loss went unreported";
    // Lost exchanges and retries must be visible in the aggregate numbers.
    int lost = 0, retries = 0;
    for (const clocksync::SyncResult& res : results) {
      lost += res.report.exchanges_lost;
      retries += res.report.retries;
    }
    EXPECT_GT(lost + retries, 0) << label;
  }
}

TEST(FaultPropertiesDrops, PauseAndClockFaultsDoNotStallSync) {
  FaultPlan plan;
  plan.add("pause:rank=1,at=0s,duration=5ms");
  plan.add("clockstep:rank=2,at=1ms,step=100us");
  plan.add("drop:p=0.05");
  simmpi::World w(topology::testbox(2, 2), 31, plan);
  sim::Time end = 0.0;
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto sync = clocksync::make_sync("hca2/20/skampi_offset/5");
    (void)co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
    end = std::max(end, ctx.sim().now());
  });
  // The paused rank cannot make progress before its window closes, so the
  // sync observably waited for it — and still finished.
  EXPECT_GE(end, 5e-3);
}

// -------------------------------------------------------- determinism ----

TEST(FaultPropertiesDeterminism, TrialSweepIsIdenticalForAnyJobCount) {
  const auto sweep = [](int jobs) {
    runner::TrialRunner pool(jobs);
    return pool.map(8, 100, [](const runner::Trial& trial) {
      simmpi::World w(topology::testbox(2, 2), trial.seed, droppy_plan(0.05));
      double out = 0.0;
      w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
        auto sync = clocksync::make_sync("hca3/20/skampi_offset/5");
        const clocksync::SyncResult res =
            co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
        out += res.clock->at_exact(ctx.sim().now()) +
               static_cast<double>(res.report.exchanges_lost);
      });
      return out;
    });
  };
  const std::vector<double> serial = sweep(1);
  EXPECT_EQ(serial, sweep(4));
  EXPECT_EQ(serial, sweep(3));
}

}  // namespace
}  // namespace hcs::fault
