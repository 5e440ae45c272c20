#include "trace/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "clocksync/factory.hpp"
#include "simmpi/world.hpp"
#include "topology/presets.hpp"

namespace hcs::trace {
namespace {

TEST(MetricsCounter, IncrementsAndAdds) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(MetricsGauge, HoldsLastValue) {
  Gauge g;
  g.set(1.0);
  g.set(-2.5);
  EXPECT_EQ(g.value(), -2.5);
}

TEST(Histogram, ExactAggregatesRegardlessOfSampleCap) {
  HistogramMetric h(2);  // tiny reservoir; aggregates must stay exact
  for (int i = 1; i <= 100; ++i) h.observe(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
}

TEST(Histogram, EmptyIsAllZero) {
  HistogramMetric h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50), 0.0);
}

TEST(Histogram, NearestRankPercentiles) {
  HistogramMetric h;
  for (int i = 10; i >= 1; --i) h.observe(i);  // insertion order must not matter
  EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(10), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(h.percentile(90), 9.0);
  EXPECT_DOUBLE_EQ(h.percentile(91), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 10.0);
}

TEST(Histogram, PercentileRejectsOutOfRange) {
  HistogramMetric h;
  h.observe(1.0);
  EXPECT_THROW(h.percentile(-1), std::invalid_argument);
  EXPECT_THROW(h.percentile(100.5), std::invalid_argument);
}

TEST(Histogram, SampleCapBelowTwoRejected) {
  EXPECT_THROW(HistogramMetric(1), std::invalid_argument);
}

TEST(Histogram, DecimationKeepsReservoirBoundedAndDeterministic) {
  const auto fill = [](HistogramMetric& h) {
    for (int i = 0; i < 1000; ++i) h.observe(i);
  };
  HistogramMetric a(16), b(16);
  fill(a);
  fill(b);
  EXPECT_LE(a.samples().size(), 16u);
  EXPECT_GE(a.samples().size(), 8u);  // decimation halves, refill grows back
  EXPECT_EQ(a.samples(), b.samples());
  EXPECT_EQ(a.count(), 1000u);
  // The retained subsample still spans the distribution.
  EXPECT_LT(a.percentile(10), a.percentile(90));
}

TEST(Histogram, UnitDefaultsToSeconds) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.histogram("a").unit(), MetricUnit::kSeconds);
  EXPECT_EQ(reg.histogram("b", MetricUnit::kNone).unit(), MetricUnit::kNone);
  // First creation wins; a later lookup with a different unit does not mutate.
  EXPECT_EQ(reg.histogram("b", MetricUnit::kSeconds).unit(), MetricUnit::kNone);
}

TEST(Registry, ReferencesAreStableAcrossInsertions) {
  MetricsRegistry reg;
  Counter& c = reg.counter("zzz");
  c.inc();
  for (int i = 0; i < 100; ++i) reg.counter("c" + std::to_string(i));
  EXPECT_EQ(c.value(), 1u);          // still the same node
  EXPECT_EQ(&c, &reg.counter("zzz"));
}

TEST(Registry, EmptyAndClear) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  reg.counter("c");
  reg.gauge("g");
  reg.histogram("h");
  EXPECT_FALSE(reg.empty());
  reg.clear();
  EXPECT_TRUE(reg.empty());
}

TEST(Histogram, MergeFromCombinesAggregatesAndReplaysSamples) {
  HistogramMetric a, b;
  a.observe(1.0);
  a.observe(3.0);
  b.observe(-2.0);
  b.observe(10.0);
  a.merge_from(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.sum(), 12.0);
  EXPECT_DOUBLE_EQ(a.min(), -2.0);
  EXPECT_DOUBLE_EQ(a.max(), 10.0);
  EXPECT_EQ(a.samples(), (std::vector<double>{1.0, 3.0, -2.0, 10.0}));
}

TEST(Histogram, MergeInOrderMatchesSequentialObservation) {
  // The TrialRunner merge contract: observing trial 0's samples then trial
  // 1's into one histogram must equal merging per-trial histograms in trial
  // order — including the deterministic decimation state.
  HistogramMetric sequential(16), trial0(16), trial1(16), merged(16);
  for (int i = 0; i < 100; ++i) {
    sequential.observe(i);
    trial0.observe(i);
  }
  for (int i = 100; i < 200; ++i) {
    sequential.observe(i);
    trial1.observe(i);
  }
  merged.merge_from(trial0);
  merged.merge_from(trial1);
  EXPECT_EQ(merged.count(), sequential.count());
  EXPECT_DOUBLE_EQ(merged.sum(), sequential.sum());
  EXPECT_LE(merged.samples().size(), 16u);
}

TEST(Registry, MergeFromFoldsAllKinds) {
  MetricsRegistry parent, trial;
  parent.counter("hits").inc(2);
  parent.gauge("level").set(0.25);
  parent.histogram("lat").observe(1.0);
  trial.counter("hits").inc(3);
  trial.counter("misses").inc(1);
  trial.gauge("level").set(0.75);
  trial.histogram("lat").observe(3.0);
  trial.histogram("ratio", MetricUnit::kNone).observe(0.5);
  parent.merge_from(trial);
  EXPECT_EQ(parent.counter("hits").value(), 5u);
  EXPECT_EQ(parent.counter("misses").value(), 1u);
  // Gauges take the merged-in value: the later writer wins, as sequentially.
  EXPECT_EQ(parent.gauge("level").value(), 0.75);
  EXPECT_EQ(parent.histogram("lat").count(), 2u);
  EXPECT_DOUBLE_EQ(parent.histogram("lat").max(), 3.0);
  // Histograms created by the merge keep the trial's unit.
  EXPECT_EQ(parent.histogram("ratio").unit(), MetricUnit::kNone);
}

TEST(MetricsThreadScope, InstallIsPerThread) {
  MetricsRegistry reg;
  const ScopedMetrics install(&reg);
  ASSERT_EQ(active_metrics(), &reg);
  MetricsRegistry* seen_on_other_thread = &reg;  // sentinel: must be overwritten
  std::thread([&] { seen_on_other_thread = active_metrics(); }).join();
  EXPECT_EQ(seen_on_other_thread, nullptr);
  EXPECT_EQ(active_metrics(), &reg);
}

TEST(MetricsMacros, NoOpWithoutInstalledRegistry) {
  ASSERT_EQ(active_metrics(), nullptr);
  HCS_METRIC_INC("nobody");
  HCS_METRIC_ADD("nobody", 5);
  HCS_METRIC_SET("nobody", 1.0);
  HCS_METRIC_OBSERVE("nobody", 1.0);
  HCS_METRIC_OBSERVE_RAW("nobody", 1.0);
  SUCCEED();
}

TEST(MetricsMacros, WriteIntoInstalledRegistry) {
  MetricsRegistry reg;
  {
    const ScopedMetrics install(&reg);
    HCS_METRIC_INC("hits");
    HCS_METRIC_ADD("hits", 2);
    HCS_METRIC_SET("level", 0.75);
    HCS_METRIC_OBSERVE("lat", 1e-3);
    HCS_METRIC_OBSERVE_RAW("ratio", 0.5);
  }
  EXPECT_EQ(active_metrics(), nullptr);  // ScopedMetrics restored
  EXPECT_EQ(reg.counter("hits").value(), 3u);
  EXPECT_EQ(reg.gauge("level").value(), 0.75);
  EXPECT_EQ(reg.histogram("lat").count(), 1u);
  EXPECT_EQ(reg.histogram("lat").unit(), MetricUnit::kSeconds);
  EXPECT_EQ(reg.histogram("ratio").unit(), MetricUnit::kNone);
}

// A handle follows whichever registry is installed: another registry, one
// it met before, the same one after clear(), or a new one at a destroyed
// one's address.
TEST(MetricHandle_, FollowsTheInstalledRegistry) {
  static constinit CounterHandle handle{"handled"};
  EXPECT_EQ(handle.get(), nullptr);
  MetricsRegistry a, b;
  {
    const ScopedMetrics install(&a);
    handle.get()->inc();
    {
      const ScopedMetrics nested(&b);
      handle.get()->inc(2);
    }
    handle.get()->inc();
    EXPECT_EQ(a.counter("handled").value(), 2u);
    a.clear();
    handle.get()->inc(5);
  }
  EXPECT_EQ(handle.get(), nullptr);
  EXPECT_EQ(a.counter("handled").value(), 5u);
  EXPECT_EQ(b.counter("handled").value(), 2u);
  for (int i = 0; i < 2; ++i) {
    std::optional<MetricsRegistry> reg;
    reg.emplace();
    const ScopedMetrics install(&*reg);
    handle.get()->inc(10);
    EXPECT_EQ(reg->counter("handled").value(), 10u) << "round " << i;
  }
}

// The coordinating thread of a sharded World cycles through every shard's
// registry; each keeps what the handle resolved to, however many there are.
TEST(MetricHandle_, CyclesThroughManyRegistries) {
  static constinit CounterHandle handle{"cycled"};
  std::vector<MetricsRegistry> regs(16);
  std::vector<Counter*> first(regs.size());
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < regs.size(); ++i) {
      const ScopedMetrics install(&regs[i]);
      Counter* c = handle.get();
      if (round == 0) first[i] = c;
      EXPECT_EQ(c, first[i]) << "registry " << i;
      c->inc(i + 1);
    }
  }
  for (std::size_t i = 0; i < regs.size(); ++i) {
    EXPECT_EQ(regs[i].counter("cycled").value(), 3 * (i + 1)) << "registry " << i;
  }
}

// Threads share a handle: its first uses race for one slot, and each thread
// still counts into its own registry.
TEST(MetricHandle_, ThreadsShareAHandle) {
  static constinit CounterHandle handle{"shared"};
  constexpr int kThreads = 4;
  constexpr std::uint64_t kIncs = 1000;
  std::vector<MetricsRegistry> regs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&regs, t] {
      const ScopedMetrics install(&regs[static_cast<std::size_t>(t)]);
      for (std::uint64_t i = 0; i < kIncs; ++i) handle.get()->inc();
    });
  }
  for (std::thread& t : threads) t.join();
  for (const MetricsRegistry& reg : regs) EXPECT_EQ(reg.counters().at("shared").value(), kIncs);
}

TEST(MetricHandle_, HistogramTakesItsUnitOnCreation) {
  static constinit HistogramHandle raw{"raw", MetricUnit::kNone};
  MetricsRegistry reg;
  const ScopedMetrics install(&reg);
  raw.get()->observe(3.0);
  EXPECT_EQ(reg.histogram("raw").unit(), MetricUnit::kNone);
  EXPECT_EQ(reg.histogram("raw").count(), 1u);
}

TEST(MetricsExport, CsvHasHeaderAndOneRowPerMetric) {
  MetricsRegistry reg;
  reg.counter("b.count").inc(7);
  reg.gauge("a.gauge").set(2.5);
  reg.histogram("c.lat").observe(0.25);
  std::ostringstream os;
  write_metrics_csv(os, reg);
  const std::string csv = os.str();
  std::istringstream lines(csv);
  std::string line;
  std::vector<std::string> rows;
  while (std::getline(lines, line)) rows.push_back(line);
  ASSERT_EQ(rows.size(), 4u);  // header + 3 metrics
  EXPECT_EQ(rows[0], "name,kind,unit,count,value,mean,p50,p90,p99,min,max");
  // Deterministic order: counters, then gauges, then histograms, each by name.
  EXPECT_EQ(rows[1].rfind("b.count,counter,", 0), 0u);
  EXPECT_EQ(rows[2].rfind("a.gauge,gauge,", 0), 0u);
  EXPECT_EQ(rows[3].rfind("c.lat,histogram,s,1,0.25", 0), 0u);
  // Every row has the same number of fields as the header.
  const auto nfields = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  for (const std::string& row : rows) EXPECT_EQ(nfields(row), nfields(rows[0]));
}

TEST(MetricsExport, SummaryScalesOnlySecondsHistograms) {
  MetricsRegistry reg;
  reg.counter("msgs").inc(3);
  reg.histogram("lat").observe(2e-6);                       // 2 microseconds
  reg.histogram("r2", MetricUnit::kNone).observe(0.5);      // dimensionless
  std::ostringstream os;
  print_metrics_summary(os, reg);
  const std::string out = os.str();
  EXPECT_NE(out.find("msgs"), std::string::npos);
  EXPECT_NE(out.find("2.000"), std::string::npos);   // lat rendered in us
  EXPECT_NE(out.find("0.500"), std::string::npos);   // r2 rendered raw
  EXPECT_EQ(out.find("500000"), std::string::npos);  // r2 NOT scaled by 1e6
}

TEST(MetricsExport, EmptyRegistrySummaryIsExplicit) {
  MetricsRegistry reg;
  std::ostringstream os;
  print_metrics_summary(os, reg);
  EXPECT_NE(os.str().find("no metrics recorded"), std::string::npos);
}

TEST(MetricsIntegration, Hca3RunReportsPerLevelTrafficAndRtts) {
  // The acceptance shape: an HCA3 run on a 2-node machine must report
  // messages on the intra-socket and inter-node levels, ping-pong RTT
  // samples, fit quality and simulator totals.
  MetricsRegistry reg;
  {
    const ScopedMetrics install(&reg);
    simmpi::World world(topology::testbox(2, 2), 5);
    world.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
      auto sync = clocksync::make_sync("hca3/recompute_intercept/50/skampi_offset/10");
      (void)co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
    });
  }
  EXPECT_GT(reg.counter("net.messages.intra_socket").value(), 0u);
  EXPECT_GT(reg.counter("net.messages.inter_node").value(), 0u);
  EXPECT_GT(reg.counter("net.bytes.inter_node").value(), 0u);
  EXPECT_GT(reg.counter("sync.pingpongs").value(), 0u);
  EXPECT_GT(reg.counter("sim.events_processed").value(), 0u);
  const HistogramMetric& rtt = reg.histogram("sync.rtt");
  ASSERT_GT(rtt.count(), 0u);
  EXPECT_GT(rtt.min(), 0.0);
  EXPECT_GE(rtt.percentile(99), rtt.percentile(50));
  const HistogramMetric& delay = reg.histogram("net.delay.inter_node");
  EXPECT_GT(delay.count(), 0u);
  // Network delays on this machine are sub-millisecond.
  EXPECT_LT(delay.percentile(50), 1e-3);
}

}  // namespace
}  // namespace hcs::trace
