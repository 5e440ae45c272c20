#include "runner/trial_runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "clocksync/factory.hpp"
#include "simmpi/world.hpp"
#include "topology/presets.hpp"
#include "trace/metrics.hpp"
#include "trace/tracer.hpp"

namespace hcs::runner {
namespace {

TEST(ResolveJobs, PositivePassesThroughZeroIsAuto) {
  EXPECT_EQ(resolve_jobs(1), 1);
  EXPECT_EQ(resolve_jobs(7), 7);
  EXPECT_GE(resolve_jobs(0), 1);  // one per hardware thread, at least one
}

TEST(TrialRunner, MapReturnsResultsInTrialIndexOrder) {
  for (const int jobs : {1, 4}) {
    TrialRunner pool(jobs);
    const std::vector<int> results =
        pool.map(16, 0, [](const Trial& trial) { return trial.index * 10; });
    ASSERT_EQ(results.size(), 16u);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(results[static_cast<std::size_t>(i)], i * 10);
  }
}

TEST(TrialRunner, SeedsAreBasePlusIndex) {
  TrialRunner pool(4);
  const auto seeds = pool.map(8, 100, [](const Trial& trial) { return trial.seed; });
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(seeds[static_cast<std::size_t>(i)], 100u + static_cast<std::uint64_t>(i));
  }
}

TEST(TrialRunner, ForEachRunsEveryTrialExactlyOnce) {
  TrialRunner pool(4);
  std::vector<std::atomic<int>> hits(32);
  pool.for_each(32, 0, [&](const Trial& trial) {
    hits[static_cast<std::size_t>(trial.index)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TrialRunner, ZeroTrialsIsANoOp) {
  TrialRunner pool(4);
  EXPECT_TRUE(pool.map(0, 0, [](const Trial&) { return 1; }).empty());
}

TEST(TrialRunner, MoreJobsThanTrialsIsFine) {
  TrialRunner pool(16);
  const auto results = pool.map(3, 0, [](const Trial& trial) { return trial.index; });
  EXPECT_EQ(results, (std::vector<int>{0, 1, 2}));
}

TEST(TrialRunner, LowestIndexExceptionWins) {
  // Both trials 3 and 9 throw; the runner must rethrow trial 3's exception
  // — the one a sequential run would have hit first.
  for (const int jobs : {1, 4}) {
    TrialRunner pool(jobs);
    try {
      pool.for_each(16, 0, [](const Trial& trial) {
        if (trial.index == 9) throw std::runtime_error("trial 9");
        if (trial.index == 3) throw std::runtime_error("trial 3");
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "trial 3");
    }
  }
}

TEST(TrialRunner, ExceptionStopsClaimingNewTrials) {
  TrialRunner pool(1);  // deterministic claim order makes the count exact
  std::atomic<int> started{0};
  EXPECT_THROW(pool.for_each(1000, 0,
                             [&](const Trial& trial) {
                               started.fetch_add(1);
                               if (trial.index == 4) throw std::runtime_error("stop");
                             }),
               std::runtime_error);
  EXPECT_EQ(started.load(), 5);  // trials 0-4; the poison flag halts the rest
}

// Bool results are the case std::vector<bool> packs into shared words:
// workers writing neighbouring trials' slots must not lose each other's bits.
TEST(TrialRunner, BoolResultsKeepEveryTrialsValue) {
  for (const int jobs : {1, 4}) {
    for (int round = 0; round < 20; ++round) {
      TrialRunner pool(jobs);
      const auto bits = pool.map(4096, 0, [](const Trial& trial) { return trial.index % 3 != 1; });
      ASSERT_EQ(bits.size(), 4096u);
      for (int i = 0; i < 4096; ++i) {
        ASSERT_EQ(bits[static_cast<std::size_t>(i)], i % 3 != 1)
            << "jobs=" << jobs << " round=" << round << " trial=" << i;
      }
    }
  }
}

TEST(TrialRunner, NoSinksInstalledMeansNoSinksInTrials) {
  ASSERT_EQ(trace::active_tracer(), nullptr);
  ASSERT_EQ(trace::active_metrics(), nullptr);
  TrialRunner pool(4);
  const auto seen = pool.map(8, 0, [](const Trial&) {
    return trace::active_tracer() == nullptr && trace::active_metrics() == nullptr;
  });
  for (const bool ok : seen) EXPECT_TRUE(ok);
}

TEST(TrialRunner, TrialsGetPrivateSinksNotTheParents) {
  trace::Tracer parent_tracer;
  trace::MetricsRegistry parent_metrics;
  const trace::ScopedTracer it(&parent_tracer);
  const trace::ScopedMetrics im(&parent_metrics);
  TrialRunner pool(4);
  const auto ok = pool.map(8, 0, [&](const Trial&) {
    return trace::active_tracer() != nullptr && trace::active_tracer() != &parent_tracer &&
           trace::active_metrics() != nullptr && trace::active_metrics() != &parent_metrics;
  });
  for (const bool v : ok) EXPECT_TRUE(v);
}

// The core determinism guarantee: metrics and traces recorded by concurrent
// trials merge into streams that do not depend on the worker count.
TEST(TrialRunner, MergedObservabilityIsIdenticalForAnyJobCount) {
  const auto run_with_jobs = [](int jobs) {
    trace::Tracer tracer;
    trace::MetricsRegistry metrics;
    struct Streams {
      std::vector<trace::TraceEvent> events;
      std::string csv;
    } streams;
    {
      const trace::ScopedTracer it(&tracer);
      const trace::ScopedMetrics im(&metrics);
      TrialRunner pool(jobs);
      pool.for_each(12, 50, [](const Trial& trial) {
        trace::Tracer* const t = trace::active_tracer();
        trace::MetricsRegistry* const m = trace::active_metrics();
        for (int i = 0; i < 20 + trial.index; ++i) {
          t->record_complete(trial.index, trace::Category::kBench, "work",
                             static_cast<double>(i), 0.5, trial.index);
          m->counter("trials.work").inc();
          m->histogram("trials.len").observe(static_cast<double>(trial.seed % 7 + i));
        }
        m->gauge("trials.last").set(static_cast<double>(trial.index));
      });
    }
    streams.events = tracer.merged_events();
    std::ostringstream csv;
    trace::write_metrics_csv(csv, metrics);
    streams.csv = csv.str();
    return streams;
  };
  const auto j1 = run_with_jobs(1);
  const auto j4 = run_with_jobs(4);
  EXPECT_EQ(j1.csv, j4.csv);
  ASSERT_EQ(j1.events.size(), j4.events.size());
  for (std::size_t i = 0; i < j1.events.size(); ++i) {
    EXPECT_EQ(j1.events[i].seq, j4.events[i].seq);
    EXPECT_EQ(j1.events[i].rank, j4.events[i].rank);
    EXPECT_EQ(j1.events[i].ts, j4.events[i].ts);
    EXPECT_EQ(j1.events[i].arg, j4.events[i].arg);
  }
  // Gauge merge is last-writer-wins in trial order, like a sequential run.
  EXPECT_NE(j1.csv.find("trials.last"), std::string::npos);
}

// End-to-end: full simulated clock-sync trials (each with its own World)
// give bit-identical results for any worker count.
TEST(TrialRunner, SimulatedTrialsAreDeterministicAcrossJobCounts) {
  const auto machine = topology::testbox(2, 2);
  const auto run_with_jobs = [&](int jobs) {
    TrialRunner pool(jobs);
    return pool.map(4, 7, [&](const Trial& trial) {
      simmpi::World world(machine, trial.seed);
      double duration = 0.0;
      world.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
        auto sync = clocksync::make_sync("hca3/recompute_intercept/20/skampi_offset/5");
        const sim::Time begin = ctx.sim().now();
        (void)co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
        duration = std::max(duration, ctx.sim().now() - begin);
      });
      return duration;
    });
  };
  const auto j1 = run_with_jobs(1);
  const auto j4 = run_with_jobs(4);
  ASSERT_EQ(j1.size(), j4.size());
  for (std::size_t i = 0; i < j1.size(); ++i) {
    EXPECT_EQ(j1[i], j4[i]);  // bit-exact, not approximately equal
    EXPECT_GT(j1[i], 0.0);
  }
}

}  // namespace
}  // namespace hcs::runner
