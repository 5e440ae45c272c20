#include "mpibench/suites.hpp"

#include <gtest/gtest.h>

#include "clocksync/factory.hpp"
#include "topology/presets.hpp"

namespace hcs::mpibench {
namespace {

struct AllSuites {
  SuiteReport osu, imb, repro;
};

AllSuites run_all_suites(const topology::MachineConfig& m, std::uint64_t seed, std::int64_t msize,
                         simmpi::BarrierAlgo barrier, int nrep) {
  simmpi::World w(m, seed);
  AllSuites out;
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    auto sync = clocksync::make_sync("hca3/100/skampi_offset/20");
    auto g = co_await sync->sync_clocks(ctx.comm_world(), clk);
    const CollectiveOp op = make_allreduce_op(msize);
    const auto osu =
        co_await run_osu_like(ctx.comm_world(), *clk, op, BarrierSchemeParams{nrep, barrier});
    const auto imb =
        co_await run_imb_like(ctx.comm_world(), *clk, op, BarrierSchemeParams{nrep, barrier});
    RoundTimeParams rt;
    rt.max_nrep = nrep;
    const auto repro = co_await run_repro_like(ctx.comm_world(), *g.clock, op, rt);
    if (ctx.rank() == 0) out = AllSuites{osu, imb, repro};
  });
  return out;
}

TEST(Suites, AllReportPlausibleLatencies) {
  const auto r = run_all_suites(topology::testbox(2, 4), 3, 8, simmpi::BarrierAlgo::kTree, 50);
  for (const SuiteReport* s : {&r.osu, &r.imb, &r.repro}) {
    EXPECT_GT(s->reported_latency, 1e-6);
    EXPECT_LT(s->reported_latency, 1e-3);
    EXPECT_EQ(s->reps, 50);
  }
}

TEST(Suites, ImbAtLeastOsu) {
  // Across-rank max >= across-rank mean, always.
  const auto r = run_all_suites(topology::testbox(2, 4), 5, 8, simmpi::BarrierAlgo::kBruck, 50);
  EXPECT_GE(r.imb.reported_latency, r.osu.reported_latency);
}

TEST(Suites, BarrierSchemesInflateSmallMessageLatency) {
  // The paper's headline effect (Figs. 7 and 9): for small payloads the
  // barrier-based suites report larger latencies than Round-Time, because
  // per-rank intervals absorb the barrier's exit imbalance.
  const auto r = run_all_suites(topology::jupiter().with_nodes(4), 7, 8,
                                simmpi::BarrierAlgo::kBruck, 60);
  EXPECT_GT(r.osu.reported_latency, r.repro.reported_latency);
  EXPECT_GT(r.imb.reported_latency, r.repro.reported_latency);
}

TEST(Suites, GapShrinksForLargeMessages) {
  // At 64 KiB the operation dwarfs the barrier imbalance, so the relative
  // OSU / ReproMPI gap must shrink compared to 8 B.
  const auto small = run_all_suites(topology::jupiter().with_nodes(4), 9, 8,
                                    simmpi::BarrierAlgo::kBruck, 40);
  const auto large = run_all_suites(topology::jupiter().with_nodes(4), 9, 64 * 1024,
                                    simmpi::BarrierAlgo::kBruck, 40);
  const double ratio_small = small.osu.reported_latency / small.repro.reported_latency;
  const double ratio_large = large.osu.reported_latency / large.repro.reported_latency;
  EXPECT_LT(ratio_large, ratio_small);
  EXPECT_NEAR(ratio_large, 1.0, 0.35);
}

TEST(Suites, BarrierAlgorithmChangesReportedLatency) {
  // Fig. 7: the same operation measured with different MPI_Barrier
  // implementations yields different numbers under barrier-based schemes.
  const auto tree = run_all_suites(topology::jupiter().with_nodes(4), 11, 8,
                                   simmpi::BarrierAlgo::kTree, 60);
  const auto ring = run_all_suites(topology::jupiter().with_nodes(4), 11, 8,
                                   simmpi::BarrierAlgo::kDoubleRing, 60);
  EXPECT_NE(tree.osu.reported_latency, ring.osu.reported_latency);
}

}  // namespace
}  // namespace hcs::mpibench
