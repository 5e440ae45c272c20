#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include "clocksync/factory.hpp"
#include "simmpi/collectives.hpp"
#include "topology/presets.hpp"
#include "util/vec.hpp"

namespace hcs::trace {
namespace {

TEST(IntervalTracer, RecordsIntervalsInClockUnits) {
  simmpi::World w(topology::testbox(1, 1), 3);
  IntervalTracer tracer(0, w.base_clock(0));
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    const std::size_t idx = tracer.begin_event("compute", 0);
    co_await ctx.sim().delay(1e-3);
    tracer.end_event(idx);
  });
  ASSERT_EQ(tracer.intervals().size(), 1u);
  EXPECT_NEAR(tracer.intervals()[0].duration(), 1e-3, 1e-6);
  EXPECT_EQ(tracer.intervals()[0].event, "compute");
}

TEST(IntervalTracer, NullClockRejected) {
  EXPECT_THROW(IntervalTracer(0, nullptr), std::invalid_argument);
}

TEST(IntervalTracer, EndEventValidatesIndex) {
  simmpi::World w(topology::testbox(1, 1), 3);
  IntervalTracer tracer(0, w.base_clock(0));
  EXPECT_THROW(tracer.end_event(0), std::out_of_range);
}

TEST(Gantt, NormalizesToEarliestStart) {
  simmpi::World w(topology::testbox(1, 2), 5);
  std::vector<IntervalTracer> tracers;
  tracers.emplace_back(0, w.base_clock(0));
  tracers.emplace_back(1, w.base_clock(1));
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    co_await ctx.sim().delay(ctx.rank() * 2e-3);  // stagger
    const std::size_t idx =
        tracers[static_cast<std::size_t>(ctx.rank())].begin_event("allreduce", 10);
    co_await ctx.sim().delay(0.5e-3);
    tracers[static_cast<std::size_t>(ctx.rank())].end_event(idx);
  });
  const auto rows = gantt_rows(tracers, "allreduce", 10);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].start, 0.0);  // rank 0 started first
  EXPECT_NEAR(rows[1].start, 2e-3, 1e-6);
  EXPECT_NEAR(rows[0].duration, 0.5e-3, 1e-6);
}

TEST(Gantt, FiltersByEventAndIteration) {
  simmpi::World w(topology::testbox(1, 1), 7);
  std::vector<IntervalTracer> tracers;
  tracers.emplace_back(0, w.base_clock(0));
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    for (int it = 0; it < 3; ++it) {
      const std::size_t a = tracers[0].begin_event("allreduce", it);
      co_await ctx.sim().delay(1e-4);
      tracers[0].end_event(a);
      const std::size_t b = tracers[0].begin_event("compute", it);
      co_await ctx.sim().delay(1e-4);
      tracers[0].end_event(b);
    }
  });
  EXPECT_EQ(gantt_rows(tracers, "allreduce", 1).size(), 1u);
  EXPECT_EQ(gantt_rows(tracers, "compute", 2).size(), 1u);
  EXPECT_EQ(gantt_rows(tracers, "allreduce", 9).size(), 0u);
}

TEST(Gantt, LocalClockOffsetsDistortStarts) {
  // The Fig. 10 effect: with per-core local clocks the Gantt rows scatter by
  // the clock offsets; with a shared/global clock they align to the event's
  // true stagger (here: zero).
  auto machine = topology::testbox(2, 1);
  machine.clocks.initial_offset_abs = 50e-3;
  simmpi::World w(machine, 9);
  std::vector<IntervalTracer> local_tracers, shared_tracers;
  for (int r = 0; r < 2; ++r) {
    local_tracers.emplace_back(r, w.base_clock(r));
    shared_tracers.emplace_back(r, w.base_clock(0));  // same clock: "global"
  }
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    co_await ctx.sim().delay(1e-3);  // both start at the same true time
    const std::size_t a =
        local_tracers[static_cast<std::size_t>(ctx.rank())].begin_event("e", 0);
    const std::size_t b =
        shared_tracers[static_cast<std::size_t>(ctx.rank())].begin_event("e", 0);
    co_await ctx.sim().delay(30e-6);
    local_tracers[static_cast<std::size_t>(ctx.rank())].end_event(a);
    shared_tracers[static_cast<std::size_t>(ctx.rank())].end_event(b);
  });
  const auto local_rows = gantt_rows(local_tracers, "e", 0);
  const auto shared_rows = gantt_rows(shared_tracers, "e", 0);
  const double local_spread = std::max(local_rows[0].start, local_rows[1].start);
  const double shared_spread = std::max(shared_rows[0].start, shared_rows[1].start);
  EXPECT_GT(local_spread, 1e-3);    // dominated by the +-50 ms clock offsets
  EXPECT_LT(shared_spread, 1e-6);   // true simultaneity visible
}

}  // namespace
}  // namespace hcs::trace
