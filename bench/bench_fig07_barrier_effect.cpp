// Fig. 7 — the benchmarking dilemma: the latency of MPI_Allreduce for small
// payloads (4/8/16 B) as reported by three suite styles (IMB-like, OSU-like,
// ReproMPI-like) under different internal MPI_Barrier algorithms; Jupiter,
// 32 x 16 = 512 ranks.
//
// Expected shape: the barrier-based suites (IMB, OSU) report latencies that
// depend strongly on the barrier algorithm and exceed ReproMPI's Round-Time
// numbers; the "tree" barrier yields the smallest latencies.
#include <iostream>

#include "clocksync/factory.hpp"
#include "common.hpp"
#include "mpibench/suites.hpp"
#include "simmpi/world.hpp"

namespace hcs::bench {
namespace {

struct Cell {
  double imb_us, osu_us, repro_us;
};

Cell run_cell(const topology::MachineConfig& machine, std::int64_t msize,
              simmpi::BarrierAlgo barrier, int nrep, const std::string& sync_label,
              std::uint64_t seed, int shards) {
  simmpi::World world(machine, seed, {}, shards);
  Cell cell{};
  world.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    auto sync = hcs::clocksync::make_sync(sync_label);
    const auto g = clean_clock(co_await sync->sync_clocks(ctx.comm_world(), clk), sync_label);
    const mpibench::CollectiveOp op = mpibench::make_allreduce_op(msize);
    const mpibench::BarrierSchemeParams bp{nrep, barrier};
    const auto imb = co_await mpibench::run_imb_like(ctx.comm_world(), *clk, op, bp);
    const auto osu = co_await mpibench::run_osu_like(ctx.comm_world(), *clk, op, bp);
    mpibench::RoundTimeParams rt;
    rt.max_nrep = nrep;
    const auto repro = co_await mpibench::run_repro_like(ctx.comm_world(), *g, op, rt);
    if (ctx.rank() == 0) {
      cell.imb_us = imb.reported_latency * 1e6;
      cell.osu_us = osu.reported_latency * 1e6;
      cell.repro_us = repro.reported_latency * 1e6;
    }
  });
  return cell;
}

}  // namespace
}  // namespace hcs::bench

int main(int argc, char** argv) {
  using namespace hcs;
  using namespace hcs::bench;
  const BenchOptions opt = parse_common(argc, argv, 0.1);
  const Observability obs(opt);
  const auto machine = topology::jupiter().with_nodes(32);
  const int nrep = scaled(300, opt.scale, 25);
  print_header("Fig. 7", "MPI_Allreduce latency by benchmark suite x barrier algorithm, " +
                             std::to_string(nrep) + " reps per cell",
               machine, opt);

  const std::string sync_label = "hca3/recompute_intercept/" +
                                 std::to_string(scaled(1000, opt.scale, 40)) +
                                 "/skampi_offset/" + std::to_string(scaled(100, opt.scale, 10));

  const std::vector<std::int64_t> msizes{4, 8, 16};
  const std::vector<simmpi::BarrierAlgo> barriers{simmpi::BarrierAlgo::kBruck,
                                                  simmpi::BarrierAlgo::kRecursiveDoubling,
                                                  simmpi::BarrierAlgo::kTree};
  const int nbarriers = static_cast<int>(barriers.size());
  // Every (msize, barrier) cell is an independent mpirun — fan them out.
  runner::TrialRunner pool(opt.jobs);
  const std::vector<Cell> cells = pool.map(
      static_cast<int>(msizes.size()) * nbarriers, opt.seed, [&](const runner::Trial& trial) {
        return run_cell(machine, msizes[static_cast<std::size_t>(trial.index / nbarriers)],
                        barriers[static_cast<std::size_t>(trial.index % nbarriers)], nrep,
                        sync_label, opt.seed, opt.shards);
      });

  util::Table table({"msize_B", "barrier", "IMB_us", "OSU_us", "ReproMPI_us"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    table.add_row({std::to_string(msizes[i / barriers.size()]),
                   simmpi::to_string(barriers[i % barriers.size()]), util::fmt(c.imb_us, 2),
                   util::fmt(c.osu_us, 2), util::fmt(c.repro_us, 2)});
  }
  table.print(std::cout);
  if (opt.csv) table.print_csv(std::cout);
  std::cout << "\nShape check: ReproMPI columns are the smallest and barely depend on the "
               "barrier; IMB/OSU depend on the barrier, with 'tree' smallest.\n";
  return 0;
}
