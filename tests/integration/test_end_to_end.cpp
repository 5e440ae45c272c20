// Integration tests: miniature versions of the paper's headline experiments,
// asserting the *shapes* the full bench harnesses reproduce.  These lock the
// qualitative results into the test suite so a regression in any layer
// (simulator, clocks, collectives, sync algorithms, schemes) shows up here.
#include <gtest/gtest.h>

#include <cmath>

#include "clocksync/accuracy.hpp"
#include "clocksync/factory.hpp"
#include "clocksync/skampi_offset.hpp"
#include "mpibench/imbalance.hpp"
#include "mpibench/suites.hpp"
#include "topology/presets.hpp"
#include "util/stats.hpp"

namespace hcs {
namespace {

struct SyncOutcome {
  double duration = 0.0;
  double max_offset_t0 = 0.0;
  double max_offset_t10 = 0.0;
};

SyncOutcome run_sync(const topology::MachineConfig& machine, const std::string& label,
                     std::uint64_t seed) {
  simmpi::World world(machine, seed);
  SyncOutcome outcome;
  const auto clients = clocksync::sample_clients(world.size(), 0, 1.0, 1);
  world.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto sync = clocksync::make_sync(label);
    const sim::Time begin = ctx.sim().now();
    const vclock::ClockPtr g =
        (co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock())).clock;
    outcome.duration = std::max(outcome.duration, ctx.sim().now() - begin);
    clocksync::SKaMPIOffset oalg(20);
    const auto acc =
        co_await clocksync::check_clock_accuracy(ctx.comm_world(), *g, oalg, 10.0, clients);
    if (ctx.rank() == 0) {
      outcome.max_offset_t0 = acc.max_abs_t0;
      outcome.max_offset_t10 = acc.max_abs_t1;
    }
  });
  return outcome;
}

// ----- Fig. 3 shape: JK accurate but O(p) slow; HCA3 fast and accurate -----

TEST(EndToEnd, Fig3Shape) {
  const auto machine = topology::jupiter().with_nodes(8);  // 128 ranks
  const SyncOutcome hca3 = run_sync(machine, "hca3/recompute_intercept/150/skampi_offset/15", 7);
  const SyncOutcome jk = run_sync(machine, "jk/150/skampi_offset/15", 7);
  EXPECT_LT(hca3.duration, jk.duration / 5.0);  // log p vs p rounds
  EXPECT_LT(hca3.max_offset_t0, 5e-6);          // both accurate right away
  EXPECT_LT(jk.max_offset_t0, 30e-6);
}

// ----- Fig. 4 shape: hierarchical H2HCA faster than flat, similar accuracy --

TEST(EndToEnd, Fig4Shape) {
  const auto machine = topology::jupiter().with_nodes(8);
  const SyncOutcome flat = run_sync(machine, "hca3/recompute_intercept/150/skampi_offset/15", 9);
  const SyncOutcome hier =
      run_sync(machine, "top/hca3/150/skampi_offset/15/bottom/clockpropagation", 9);
  EXPECT_LT(hier.duration, flat.duration);
  EXPECT_LT(hier.max_offset_t0, flat.max_offset_t0 * 3.0);
}

// ----- Fig. 6 shape: accuracy degrades but survives at larger scale --------

TEST(EndToEnd, ScalingShape) {
  const SyncOutcome small =
      run_sync(topology::jupiter().with_nodes(4), "hca3/100/skampi_offset/10", 11);
  const SyncOutcome large =
      run_sync(topology::jupiter().with_nodes(32), "hca3/100/skampi_offset/10", 11);
  EXPECT_GT(large.duration, small.duration);   // deeper tree
  EXPECT_LT(large.max_offset_t0, 50e-6);       // still a usable clock
}

// ----- Fig. 7/9 shape: barrier-based measurement inflates small payloads ---

TEST(EndToEnd, BarrierBiasShape) {
  simmpi::World world(topology::jupiter().with_nodes(8), 13);
  mpibench::SuiteReport imb, repro;
  world.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    auto sync = clocksync::make_sync("hca3/100/skampi_offset/15");
    auto g = co_await sync->sync_clocks(ctx.comm_world(), clk);
    const auto op = mpibench::make_allreduce_op(8);
    const auto i = co_await mpibench::run_imb_like(
        ctx.comm_world(), *clk, op,
        mpibench::BarrierSchemeParams{60, simmpi::BarrierAlgo::kBruck});
    mpibench::RoundTimeParams rt;
    rt.max_nrep = 60;
    const auto r = co_await mpibench::run_repro_like(ctx.comm_world(), *g.clock, op, rt);
    if (ctx.rank() == 0) {
      imb = i;
      repro = r;
    }
  });
  EXPECT_GT(imb.reported_latency, repro.reported_latency * 1.15);
}

// ----- Fig. 8 shape: double ring worst, tree best ---------------------------

TEST(EndToEnd, ImbalanceShape) {
  simmpi::World world(topology::jupiter().with_nodes(8), 17);
  double tree_med = 0, ring_med = 0;
  world.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto sync = clocksync::make_sync("hca3/100/skampi_offset/15");
    auto g = co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
    mpibench::ImbalanceParams params;
    params.ncalls = 25;
    const auto tree = co_await mpibench::measure_barrier_imbalance(
        ctx.comm_world(), *g.clock, simmpi::BarrierAlgo::kTree, params);
    const auto ring = co_await mpibench::measure_barrier_imbalance(
        ctx.comm_world(), *g.clock, simmpi::BarrierAlgo::kDoubleRing, params);
    if (ctx.rank() == 0) {
      tree_med = util::median(tree);
      ring_med = util::median(ring);
    }
  });
  EXPECT_GT(ring_med, tree_med * 3.0);
}

// ----- Determinism across the whole stack -----------------------------------

TEST(EndToEnd, WholeExperimentDeterministic) {
  const auto machine = topology::jupiter().with_nodes(4);
  const SyncOutcome a = run_sync(machine, "hca3/80/skampi_offset/10", 23);
  const SyncOutcome b = run_sync(machine, "hca3/80/skampi_offset/10", 23);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.max_offset_t0, b.max_offset_t0);
  EXPECT_EQ(a.max_offset_t10, b.max_offset_t10);
  const SyncOutcome c = run_sync(machine, "hca3/80/skampi_offset/10", 24);
  EXPECT_NE(a.max_offset_t0, c.max_offset_t0);
}

// ----- Paper Table I: presets are usable end to end -------------------------

TEST(EndToEnd, EveryMachinePresetSynchronizes) {
  for (const auto& machine :
       {topology::jupiter().with_nodes(2), topology::hydra().with_nodes(2),
        topology::titan().with_nodes(4)}) {
    const SyncOutcome o =
        run_sync(machine, "top/hca3/100/skampi_offset/10/bottom/clockpropagation", 29);
    EXPECT_GT(o.duration, 0.0) << machine.name;
    EXPECT_LT(o.max_offset_t0, 10e-6) << machine.name;
  }
}

}  // namespace
}  // namespace hcs
