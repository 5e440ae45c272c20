// FaultInjector determinism and World integration: the RNG streams are
// separate from the fault-free model (a zero-probability plan changes
// nothing), identical (seed, plan) pairs reproduce exactly, and clock /
// pause faults resolve against the right ranks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "clocksync/factory.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "simmpi/world.hpp"
#include "topology/presets.hpp"
#include "trace/metrics.hpp"

namespace hcs::fault {
namespace {

/// One full synchronization under `plan`; readings are bit-compared, so any
/// divergence in the simulated schedule or the injected faults shows up.
struct RunResult {
  sim::Time sync_end = 0.0;
  std::vector<double> readings;
  std::uint64_t drops = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t delayed = 0;

  bool operator==(const RunResult&) const = default;
};

RunResult run_sync(const FaultPlan& plan, std::uint64_t seed) {
  trace::MetricsRegistry metrics;
  const trace::ScopedMetrics install(&metrics);
  RunResult out;
  {
    simmpi::World w(topology::testbox(2, 2), seed, plan);
    std::vector<vclock::ClockPtr> clocks(static_cast<std::size_t>(w.size()));
    w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
      auto sync = clocksync::make_sync("hca3/50/skampi_offset/10");
      clocks[static_cast<std::size_t>(ctx.rank())] =
          (co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock())).clock;
      out.sync_end = std::max(out.sync_end, ctx.sim().now());
    });
    for (const vclock::ClockPtr& clk : clocks) out.readings.push_back(clk->at_exact(out.sync_end));
  }
  // Read after the World is gone: a sharded World folds its per-shard
  // counters into the installed registry when it is destroyed.
  out.drops = metrics.counter("fault.net.drops").value();
  out.duplicates = metrics.counter("fault.net.duplicates").value();
  out.delayed = metrics.counter("fault.net.delayed").value();
  return out;
}

TEST(FaultInjector_, ZeroProbabilityPlanIsBitIdenticalToNoPlan) {
  FaultPlan zero;
  zero.add("drop:p=0");
  zero.add("duplicate:p=0");
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    const RunResult without = run_sync({}, seed);
    RunResult with = run_sync(zero, seed);
    EXPECT_EQ(with.drops, 0u);
    // Counters aside, the simulated schedule must match bit for bit.
    with.drops = with.duplicates = with.delayed = 0;
    EXPECT_EQ(with, without) << "seed " << seed;
  }
}

TEST(FaultInjector_, SameSeedAndPlanReproduceExactly) {
  FaultPlan plan;
  plan.add("drop:p=0.05");
  plan.add("reorder:p=0.1,delay=100us");
  plan.set_seed(3);
  const RunResult a = run_sync(plan, 11);
  const RunResult b = run_sync(plan, 11);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.drops, 0u);
}

TEST(FaultInjector_, FaultSeedSelectsADifferentFaultStream) {
  FaultPlan a, b;
  a.add("drop:p=0.05");
  b.add("drop:p=0.05");
  a.set_seed(1);
  b.set_seed(2);
  // Same world seed, different fault stream: the fault-free model is shared
  // but which messages drop differs, so the schedules diverge.
  EXPECT_NE(run_sync(a, 11), run_sync(b, 11));
}

TEST(FaultInjector_, DuplicatesAndDelaysAreCounted) {
  FaultPlan plan;
  plan.add("duplicate:p=0.2");
  plan.add("reorder:p=0.2,delay=50us");
  const RunResult r = run_sync(plan, 5);
  EXPECT_GT(r.duplicates, 0u);
  EXPECT_GT(r.delayed, 0u);
}

TEST(FaultInjector_, PauseWindowTranslatesTimestamps) {
  FaultPlan plan;
  plan.add("pause:rank=1,at=2s,duration=500ms");
  FaultInjector inj(plan, 99, 4);
  EXPECT_TRUE(inj.pause_active());
  EXPECT_FALSE(inj.net_active());
  EXPECT_DOUBLE_EQ(inj.release_time(1, 1.0), 1.0);    // before the window
  EXPECT_DOUBLE_EQ(inj.release_time(1, 2.0), 2.5);    // at onset
  EXPECT_DOUBLE_EQ(inj.release_time(1, 2.49), 2.5);   // inside
  EXPECT_DOUBLE_EQ(inj.release_time(1, 2.5), 2.5);    // window end is open
  EXPECT_DOUBLE_EQ(inj.release_time(0, 2.25), 2.25);  // other ranks unaffected
}

TEST(FaultInjector_, ClockFaultsResolveAgainstTheirRank) {
  FaultPlan plan;
  plan.add("clockstep:rank=2,at=100s,step=-250us");
  plan.add("freqjump:rank=0,at=10s,ppm=5");
  FaultInjector inj(plan, 0, 4);
  ASSERT_EQ(inj.clock_faults().size(), 2u);
  EXPECT_EQ(inj.clock_faults()[0].kind, FaultKind::kClockStep);
  EXPECT_EQ(inj.clock_faults()[0].rank, 2);
  EXPECT_DOUBLE_EQ(inj.clock_faults()[0].at, 100.0);
  EXPECT_DOUBLE_EQ(inj.clock_faults()[0].delta, -250e-6);
  EXPECT_EQ(inj.clock_faults()[1].kind, FaultKind::kFreqJump);
  EXPECT_DOUBLE_EQ(inj.clock_faults()[1].delta, 5e-6);
}

TEST(FaultInjector_, RankTargetedSpecBeyondWorldSizeThrows) {
  FaultPlan plan;
  plan.add("clockstep:rank=64,at=1s,step=1ms");
  EXPECT_THROW(simmpi::World(topology::testbox(2, 2), 1, plan), std::invalid_argument);
}

TEST(WorldClockFaults, ClockStepShiftsReadsAfterOnset) {
  FaultPlan plan;
  plan.add("clockstep:rank=1,at=5s,step=250us");
  simmpi::World faulted(topology::testbox(2, 1), 17, plan);
  simmpi::World clean(topology::testbox(2, 1), 17);
  const auto read = [](simmpi::World& w, int rank, double t) {
    return w.base_clock(rank)->at_exact(t);
  };
  EXPECT_DOUBLE_EQ(read(faulted, 1, 4.9), read(clean, 1, 4.9));  // past unaffected
  EXPECT_NEAR(read(faulted, 1, 5.1) - read(clean, 1, 5.1), 250e-6, 1e-12);
  EXPECT_DOUBLE_EQ(read(faulted, 0, 5.1), read(clean, 0, 5.1));  // other rank untouched
}

TEST(WorldClockFaults, FreqJumpChangesTheRateAfterOnset) {
  FaultPlan plan;
  plan.add("freqjump:rank=0,at=10s,ppm=100");
  simmpi::World faulted(topology::testbox(1, 1), 23, plan);
  simmpi::World clean(topology::testbox(1, 1), 23);
  const auto rate_delta = [&](double t0, double t1) {
    const double faulted_span =
        faulted.base_clock(0)->at_exact(t1) - faulted.base_clock(0)->at_exact(t0);
    const double clean_span = clean.base_clock(0)->at_exact(t1) - clean.base_clock(0)->at_exact(t0);
    return (faulted_span - clean_span) / (t1 - t0);
  };
  EXPECT_NEAR(rate_delta(0.0, 10.0), 0.0, 1e-9);      // before: identical rate
  EXPECT_NEAR(rate_delta(10.0, 20.0), 100e-6, 1e-8);  // after: +100 ppm
}

// any_event_fired switches exactly at the plan's earliest crash or link cut,
// wherever the cut sits (here between the two highest ranks).
TEST(FailureDetector_, AnyEventFiredSwitchesAtTheEarliestCrashOrCut) {
  const std::vector<std::vector<std::string>> plans = {
      {"crash:rank=3,at=0.005"},
      {"crashlink:rank=30,peer=31,at=0.002"},
      {"crash:rank=3,at=0.005", "crashlink:rank=30,peer=31,at=0.002"},
      {"crash:rank=3,at=0.001", "crashlink:rank=31,peer=30,at=0.002"},
  };
  const std::vector<double> earliest = {0.005, 0.002, 0.002, 0.001};
  for (std::size_t i = 0; i < plans.size(); ++i) {
    FaultPlan plan;
    for (const std::string& spec : plans[i]) plan.add(spec);
    const simmpi::World w(topology::testbox(16, 2), 1, plan);
    const simmpi::FailureDetector* fd = w.failure_detector();
    ASSERT_NE(fd, nullptr);
    const double first = earliest[i];
    EXPECT_FALSE(fd->any_event_fired(std::nextafter(first, 0.0))) << "plan " << i;
    EXPECT_TRUE(fd->any_event_fired(first)) << "plan " << i;
  }
}

}  // namespace
}  // namespace hcs::fault
