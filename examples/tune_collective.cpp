// Tuning example: pick the fastest MPI_Allreduce implementation for a given
// message size — the PGMPITuneLib use case that motivated the paper.
//
//   $ ./examples/tune_collective [--msize BYTES] [--nodes N]
//
// The point the paper makes (and this example demonstrates): with a
// barrier-based measurement the *winner can change with the barrier
// algorithm*, whereas Round-Time measurements with a global clock give a
// stable ranking.
#include <iostream>
#include <stdexcept>

#include "clocksync/factory.hpp"
#include "mpibench/suites.hpp"
#include "simmpi/world.hpp"
#include "topology/presets.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace hcs;

double measure_roundtime(const topology::MachineConfig& machine, std::int64_t msize,
                         simmpi::AllreduceAlgo algo, std::uint64_t seed) {
  simmpi::World world(machine, seed);
  double latency = 0;
  world.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto sync = clocksync::make_sync("hca3/recompute_intercept/200/skampi_offset/20");
    const clocksync::SyncResult g =
        co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
    if (!g.report.clean()) {
      throw std::runtime_error("tune_collective: sync reported degraded health");
    }
    mpibench::RoundTimeParams params;
    params.max_nrep = 100;
    const auto report = co_await mpibench::run_repro_like(
        ctx.comm_world(), *g.clock, mpibench::make_allreduce_op(msize, algo), params);
    if (ctx.rank() == 0) latency = report.reported_latency;
  });
  return latency;
}

double measure_barrier_based(const topology::MachineConfig& machine, std::int64_t msize,
                             simmpi::AllreduceAlgo algo, simmpi::BarrierAlgo barrier,
                             std::uint64_t seed) {
  simmpi::World world(machine, seed);
  double latency = 0;
  world.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    const auto report = co_await mpibench::run_osu_like(
        ctx.comm_world(), *clk, mpibench::make_allreduce_op(msize, algo),
        mpibench::BarrierSchemeParams{100, barrier});
    if (ctx.rank() == 0) latency = report.reported_latency;
  });
  return latency;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto msize = cli.get_int("msize", 8);
  const int nodes = static_cast<int>(cli.get_int("nodes", 8));
  const auto machine = topology::jupiter().with_nodes(nodes);
  std::cout << "Tuning MPI_Allreduce for " << msize << " B on " << machine.describe() << "\n\n";

  const std::vector<simmpi::AllreduceAlgo> candidates = {
      simmpi::AllreduceAlgo::kRecursiveDoubling, simmpi::AllreduceAlgo::kRing,
      simmpi::AllreduceAlgo::kReduceBcast, simmpi::AllreduceAlgo::kRabenseifner};

  util::Table table({"allreduce algorithm", "Round-Time [us]", "barrier(tree) [us]",
                     "barrier(double ring) [us]"});
  simmpi::AllreduceAlgo best = candidates.front();
  double best_latency = 1e9;
  for (const auto algo : candidates) {
    const double rt = measure_roundtime(machine, msize, algo, cli.seed(1));
    const double bt = measure_barrier_based(machine, msize, algo, simmpi::BarrierAlgo::kTree,
                                            cli.seed(1));
    const double br = measure_barrier_based(machine, msize, algo,
                                            simmpi::BarrierAlgo::kDoubleRing, cli.seed(1));
    table.add_row({to_string(algo), util::fmt(rt * 1e6, 2), util::fmt(bt * 1e6, 2),
                   util::fmt(br * 1e6, 2)});
    if (rt < best_latency) {
      best_latency = rt;
      best = algo;
    }
  }
  table.print(std::cout);
  std::cout << "\nRound-Time winner: " << to_string(best) << " at "
            << util::fmt(best_latency * 1e6, 2) << " us\n"
            << "Note how the barrier-based columns distort the numbers (and can distort the "
               "ranking) for small payloads.\n";
  return 0;
}
