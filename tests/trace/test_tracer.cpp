#include "trace/tracer.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "clocksync/factory.hpp"
#include "simmpi/world.hpp"
#include "topology/presets.hpp"
#include "trace/span.hpp"

namespace hcs::trace {
namespace {

struct FakeTimeSource final : TimeSource {
  double t = 0.0;
  double trace_now() const override { return t; }
};

TEST(StructuredTracer, NowIsZeroWithoutTimeSource) {
  Tracer tracer;
  EXPECT_EQ(tracer.now(), 0.0);
  EXPECT_EQ(tracer.time_source(), nullptr);
}

TEST(StructuredTracer, UsesInstalledTimeSource) {
  Tracer tracer;
  FakeTimeSource src;
  src.t = 1.5;
  tracer.set_time_source(&src, TimeSourceKind::kGlobalClock);
  EXPECT_EQ(tracer.now(), 1.5);
  EXPECT_EQ(tracer.time_source_kind(), TimeSourceKind::kGlobalClock);
  tracer.record_instant(0, Category::kApp, "tick");
  const auto events = tracer.merged_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].ts, 1.5);
  EXPECT_TRUE(events[0].instant());
  EXPECT_EQ(events[0].source, TimeSourceKind::kGlobalClock);
}

TEST(StructuredTracer, InvalidRingCapacityThrows) {
  EXPECT_THROW(Tracer(0), std::invalid_argument);
}

TEST(StructuredTracer, RingOverflowDropsOldestOnly) {
  Tracer tracer(4);
  for (int i = 0; i < 6; ++i) {
    tracer.record_complete(0, Category::kApp, "e", static_cast<double>(i), 0.1);
  }
  EXPECT_EQ(tracer.recorded(), 6u);
  EXPECT_EQ(tracer.dropped(), 2u);
  const auto events = tracer.merged_events();
  ASSERT_EQ(events.size(), 4u);
  // The two oldest events (ts 0, 1) were overwritten.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(events[i].ts, static_cast<double>(i + 2));
  }
}

TEST(StructuredTracer, RingsArePerRank) {
  Tracer tracer(2);
  tracer.record_complete(0, Category::kApp, "a", 0.0, 0.1);
  tracer.record_complete(0, Category::kApp, "b", 1.0, 0.1);
  tracer.record_complete(5, Category::kApp, "c", 2.0, 0.1);  // rank gap is fine
  EXPECT_EQ(tracer.dropped(), 0u);  // rank 0 exactly full, rank 5 has room
  EXPECT_EQ(tracer.merged_events().size(), 3u);
}

TEST(StructuredTracer, MergeOrdersByTimestampThenSequence) {
  Tracer tracer;
  // Same timestamp on three ranks: record order must break the tie.
  tracer.record_complete(2, Category::kApp, "second", 1.0, 0.1);
  tracer.record_complete(0, Category::kApp, "third", 1.0, 0.1);
  tracer.record_complete(1, Category::kApp, "first", 0.5, 0.1);
  const auto events = tracer.merged_events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "first");
  EXPECT_STREQ(events[1].name, "second");
  EXPECT_STREQ(events[2].name, "third");
  EXPECT_LT(events[1].seq, events[2].seq);
}

TEST(StructuredTracer, NegativeDurationClampedToZero) {
  Tracer tracer;
  tracer.record_complete(0, Category::kApp, "e", 1.0, -0.5);
  const auto events = tracer.merged_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].dur, 0.0);     // clamped, so it is still a span ...
  EXPECT_FALSE(events[0].instant());  // ... not reinterpreted as an instant
}

TEST(StructuredTracer, ClearResetsEverything) {
  Tracer tracer(1);
  tracer.record_instant(0, Category::kApp, "a");
  tracer.record_instant(0, Category::kApp, "b");
  tracer.clear();
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_TRUE(tracer.merged_events().empty());
}

TEST(StructuredTracer, EnumNames) {
  EXPECT_STREQ(to_string(Category::kSync), "sync");
  EXPECT_STREQ(to_string(Category::kNet), "net");
  EXPECT_STREQ(to_string(TimeSourceKind::kSimTime), "sim");
  EXPECT_STREQ(to_string(TimeSourceKind::kLocalClock), "local");
}

TEST(StructuredTracer, AbsorbAppendsInRecordOrderAndResequences) {
  Tracer parent, trial;
  parent.record_complete(0, Category::kApp, "p0", 0.0, 0.1);
  trial.record_complete(1, Category::kSync, "t0", 5.0, 0.2, 7);
  trial.record_complete(0, Category::kApp, "t1", 3.0, 0.1);
  parent.absorb(trial);
  EXPECT_EQ(parent.recorded(), 3u);
  const auto events = parent.merged_events();
  ASSERT_EQ(events.size(), 3u);
  // Absorbed events keep rank/ts/arg but get fresh sequence numbers, so the
  // merged stream orders them as if the parent had just recorded them.
  EXPECT_STREQ(events[0].name, "p0");
  EXPECT_STREQ(events[1].name, "t1");
  EXPECT_STREQ(events[2].name, "t0");
  EXPECT_EQ(events[2].rank, 1);
  EXPECT_EQ(events[2].arg, 7);
  EXPECT_EQ(events[2].cat, Category::kSync);
  EXPECT_LT(events[0].seq, events[2].seq);
}

TEST(StructuredTracer, AbsorbInTrialOrderMatchesSequentialRecording) {
  // The TrialRunner merge contract: recording trials A then B into one
  // tracer must equal recording each into its own tracer and absorbing
  // A then B.
  auto record_trial = [](Tracer& t, int trial) {
    const double base = static_cast<double>(trial);
    t.record_complete(trial, Category::kBench, "sync", base + 0.25, 0.5);
    t.record_instant(trial, Category::kBench, "done", trial);
  };
  Tracer sequential;
  record_trial(sequential, 0);
  record_trial(sequential, 1);

  Tracer parent, trial0, trial1;
  record_trial(trial0, 0);
  record_trial(trial1, 1);
  parent.absorb(trial0);
  parent.absorb(trial1);

  const auto expected = sequential.merged_events();
  const auto merged = parent.merged_events();
  ASSERT_EQ(merged.size(), expected.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_STREQ(merged[i].name, expected[i].name);
    EXPECT_EQ(merged[i].rank, expected[i].rank);
    EXPECT_EQ(merged[i].ts, expected[i].ts);
    EXPECT_EQ(merged[i].seq, expected[i].seq);
  }
}

TEST(StructuredTracer, AbsorbRespectsRingCapacity) {
  Tracer parent(2), trial(8);
  for (int i = 0; i < 6; ++i) {
    trial.record_complete(0, Category::kApp, "e", static_cast<double>(i), 0.1);
  }
  parent.absorb(trial);
  EXPECT_EQ(parent.dropped(), 4u);
  const auto events = parent.merged_events();
  ASSERT_EQ(events.size(), 2u);  // the newest two survive
  EXPECT_DOUBLE_EQ(events[0].ts, 4.0);
  EXPECT_DOUBLE_EQ(events[1].ts, 5.0);
}

TEST(StructuredTracer, AbsorbCountsTheAbsorbedTracersDrops) {
  // A World or trial tracer has the parent's ring capacity; absorbing one
  // that overflowed must report the counts recording directly would have.
  auto record = [](Tracer& t) {
    for (int i = 0; i < 5; ++i) t.record_instant(0, Category::kApp, "e", i);
    t.record_instant(1, Category::kApp, "f", 0);
  };
  Tracer direct(2), parent(2), trial(2);
  parent.record_instant(0, Category::kApp, "before", 0);
  direct.record_instant(0, Category::kApp, "before", 0);
  record(direct);
  record(trial);
  parent.absorb(trial);
  EXPECT_EQ(parent.recorded(), direct.recorded());
  EXPECT_EQ(parent.dropped(), direct.dropped());
  EXPECT_EQ(parent.dropped(), 4u);
  ASSERT_EQ(parent.merged_events().size(), direct.merged_events().size());
}

TEST(TracerThreadScope, InstallIsPerThread) {
  Tracer tracer;
  const ScopedTracer install(&tracer);
  ASSERT_EQ(active_tracer(), &tracer);
  Tracer* seen_on_other_thread = &tracer;  // sentinel: must be overwritten
  std::thread([&] { seen_on_other_thread = active_tracer(); }).join();
  EXPECT_EQ(seen_on_other_thread, nullptr);
  EXPECT_EQ(active_tracer(), &tracer);
}

TEST(ScopedTracerInstall, RestoresPreviousTracer) {
  ASSERT_EQ(active_tracer(), nullptr);
  Tracer outer, inner;
  {
    const ScopedTracer a(&outer);
    EXPECT_EQ(active_tracer(), &outer);
    {
      const ScopedTracer b(&inner);
      EXPECT_EQ(active_tracer(), &inner);
    }
    EXPECT_EQ(active_tracer(), &outer);
  }
  EXPECT_EQ(active_tracer(), nullptr);
}

TEST(SpanTest, RecordsIntervalOnDestruction) {
  Tracer tracer;
  FakeTimeSource src;
  tracer.set_time_source(&src);
  {
    const Span span(&tracer, Category::kSync, 3, "work", 42);
    src.t = 2.0;  // time passes inside the scope
  }
  const auto events = tracer.merged_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "work");
  EXPECT_EQ(events[0].ts, 0.0);
  EXPECT_EQ(events[0].dur, 2.0);
  EXPECT_EQ(events[0].rank, 3);
  EXPECT_EQ(events[0].arg, 42);
  EXPECT_EQ(events[0].cat, Category::kSync);
}

TEST(SpanTest, NullTracerIsInert) {
  const Span span(nullptr, Category::kApp, 0, "ignored");
  // Nothing to assert beyond "does not crash / does not touch a tracer".
  SUCCEED();
}

TEST(SpanMacros, NoOpWithoutInstalledTracer) {
  ASSERT_EQ(active_tracer(), nullptr);
  {
    HCS_TRACE_SCOPE(App, 0, "scope_without_tracer", 1);
    HCS_TRACE_INSTANT(App, 0, "instant_without_tracer");
  }
  SUCCEED();
}

TEST(SpanMacros, RecordIntoInstalledTracer) {
  Tracer tracer;
  FakeTimeSource src;
  tracer.set_time_source(&src);
  {
    const ScopedTracer install(&tracer);
    {
      HCS_TRACE_SCOPE(Coll, 1, "macro_span", 7);
      src.t = 1.0;
      HCS_TRACE_INSTANT(Sync, 2, "macro_instant", 9);
    }
  }
  const auto events = tracer.merged_events();
  ASSERT_EQ(events.size(), 2u);
  // The span covers [0, 1] and the instant fired at ts 1, so (ts, seq) order
  // puts the span first even though the instant was recorded earlier.
  EXPECT_STREQ(events[0].name, "macro_span");
  EXPECT_EQ(events[0].rank, 1);
  EXPECT_EQ(events[0].arg, 7);
  EXPECT_EQ(events[0].dur, 1.0);
  EXPECT_STREQ(events[1].name, "macro_instant");
  EXPECT_EQ(events[1].rank, 2);
  EXPECT_EQ(events[1].arg, 9);
}

TEST(StructuredTracer, IdenticalSimRunsProduceIdenticalStreams) {
  // The determinism contract: two identical HCA3 runs under fresh tracers
  // yield byte-identical merged event streams.
  const auto run_once = [](std::vector<TraceEvent>& out) {
    Tracer tracer;
    const ScopedTracer install(&tracer);
    {
      // The World folds its shards' events into `tracer` when destroyed.
      simmpi::World world(topology::testbox(2, 2), 17);
      world.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
        auto sync = clocksync::make_sync("hca3/recompute_intercept/50/skampi_offset/10");
        (void)co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
      });
    }
    out = tracer.merged_events();
  };
  std::vector<TraceEvent> first, second;
  run_once(first);
  run_once(second);
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_STREQ(first[i].name, second[i].name);
    EXPECT_EQ(first[i].ts, second[i].ts);
    EXPECT_EQ(first[i].dur, second[i].dur);
    EXPECT_EQ(first[i].seq, second[i].seq);
    EXPECT_EQ(first[i].rank, second[i].rank);
    EXPECT_EQ(first[i].cat, second[i].cat);
  }
}

TEST(StructuredTracer, WorldInstallsSimTimeSource) {
  // Rank code records into its shard's tracer, which reads that shard's
  // simulated time; the tracer installed around the World keeps its own
  // (here: no) time source, so nothing can dangle once the World is gone.
  Tracer tracer;
  const ScopedTracer install(&tracer);
  std::vector<const TimeSource*> sources;
  std::vector<TimeSourceKind> kinds;
  {
    simmpi::World world(topology::testbox(1, 2), 3);
    world.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
      co_await ctx.sim().delay(0.5);
      const Tracer* shard = active_tracer();
      sources.push_back(shard != nullptr ? shard->time_source() : nullptr);
      kinds.push_back(shard != nullptr ? shard->time_source_kind() : TimeSourceKind::kLocalClock);
      EXPECT_EQ(shard != nullptr ? shard->now() : -1.0, 0.5);
    });
    EXPECT_EQ(tracer.time_source(), nullptr);
  }
  ASSERT_EQ(sources.size(), 2u);
  for (std::size_t r = 0; r < sources.size(); ++r) {
    EXPECT_NE(sources[r], nullptr);
    EXPECT_EQ(kinds[r], TimeSourceKind::kSimTime);
  }
  EXPECT_EQ(tracer.time_source(), nullptr);
}

}  // namespace
}  // namespace hcs::trace
