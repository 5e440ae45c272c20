// Microbenchmarks (google-benchmark) for the simulated collectives and the
// synchronization algorithms: how much host time one simulated operation
// costs, which bounds the experiment sizes feasible on one core.
#include <benchmark/benchmark.h>

#include "clocksync/factory.hpp"
#include "simmpi/collectives.hpp"
#include "simmpi/world.hpp"
#include "topology/presets.hpp"
#include "util/vec.hpp"

namespace {

using namespace hcs;

void BM_SimulatedBarrier(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const auto algo = static_cast<simmpi::BarrierAlgo>(state.range(1));
  for (auto _ : state) {
    simmpi::World w(topology::testbox(ranks / 4 > 0 ? ranks / 4 : 1, 4), 3);
    w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
      co_await simmpi::barrier(ctx.comm_world(), algo);
    });
    benchmark::DoNotOptimize(w.events_processed());
  }
}
BENCHMARK(BM_SimulatedBarrier)
    ->Args({64, static_cast<int>(simmpi::BarrierAlgo::kBruck)})
    ->Args({64, static_cast<int>(simmpi::BarrierAlgo::kTree)})
    ->Args({256, static_cast<int>(simmpi::BarrierAlgo::kBruck)})
    ->Args({256, static_cast<int>(simmpi::BarrierAlgo::kTree)});

void BM_SimulatedAllreduce(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    simmpi::World w(topology::testbox(ranks / 4, 4), 5);
    w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
      (void)co_await simmpi::allreduce(ctx.comm_world(), util::vec(1.0));
    });
    benchmark::DoNotOptimize(w.events_processed());
  }
}
BENCHMARK(BM_SimulatedAllreduce)->Arg(64)->Arg(256)->Arg(1024);

void BM_PingPongBurst(benchmark::State& state) {
  const int nexchanges = static_cast<int>(state.range(0));
  for (auto _ : state) {
    simmpi::World w(topology::testbox(2, 1), 7);
    w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
      auto clk = ctx.base_clock();
      (void)co_await ctx.comm_world().pingpong_burst(1 - ctx.rank(), ctx.rank() == 1, *clk,
                                                     nexchanges, 8);
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * nexchanges);
}
BENCHMARK(BM_PingPongBurst)->Arg(100)->Arg(1000);

void BM_Hca3FullSync(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    simmpi::World w(topology::testbox(nodes, 8), 9);
    w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
      auto sync = clocksync::make_sync("hca3/50/skampi_offset/10");
      (void)co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * nodes * 8);
}
BENCHMARK(BM_Hca3FullSync)->Arg(4)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
