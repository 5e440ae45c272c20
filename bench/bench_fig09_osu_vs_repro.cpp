// Fig. 9 — latency of MPI_Allreduce over message size, measured with the
// OSU-style barrier scheme vs. ReproMPI's Round-Time scheme; Titan,
// 64 x 16 = 1024 ranks, 3 mpiruns (error bars = min/max of the average).
//
// Expected shape: OSU's numbers are inflated by the barrier's exit imbalance
// at small message sizes; the curves converge as the payload grows and the
// operation itself dominates.
#include <algorithm>
#include <iostream>

#include "clocksync/factory.hpp"
#include "common.hpp"
#include "mpibench/suites.hpp"
#include "simmpi/world.hpp"

namespace hcs::bench {
namespace {

struct Point {
  double imb_us, osu_us, repro_us;
};

Point one_mpirun(const topology::MachineConfig& machine, std::int64_t msize, int nrep,
                 const std::string& sync_label, std::uint64_t seed, int shards) {
  simmpi::World world(machine, seed, {}, shards);
  Point point{};
  world.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    auto sync = hcs::clocksync::make_sync(sync_label);
    const auto g = clean_clock(co_await sync->sync_clocks(ctx.comm_world(), clk), sync_label);
    const mpibench::CollectiveOp op = mpibench::make_allreduce_op(msize);
    const mpibench::BarrierSchemeParams bp{nrep, simmpi::BarrierAlgo::kTree};
    const auto imb = co_await mpibench::run_imb_like(ctx.comm_world(), *clk, op, bp);
    const auto osu = co_await mpibench::run_osu_like(ctx.comm_world(), *clk, op, bp);
    mpibench::RoundTimeParams rt;
    rt.max_nrep = nrep;
    rt.max_time_slice = 5.0;  // the paper's 5 s time slice per message size
    const auto repro = co_await mpibench::run_repro_like(ctx.comm_world(), *g, op, rt);
    if (ctx.rank() == 0) {
      point.imb_us = imb.reported_latency * 1e6;
      point.osu_us = osu.reported_latency * 1e6;
      point.repro_us = repro.reported_latency * 1e6;
    }
  });
  return point;
}

}  // namespace
}  // namespace hcs::bench

int main(int argc, char** argv) {
  using namespace hcs;
  using namespace hcs::bench;
  const BenchOptions opt = parse_common(argc, argv, 0.1);
  const Observability obs(opt);
  const auto machine = topology::titan().with_nodes(64);  // 64 x 16 = 1024 ranks
  const int nrep = scaled(200, opt.scale, 15);
  const int nmpiruns = 3;
  print_header("Fig. 9", "Allreduce latency, OSU-like vs. ReproMPI (Round-Time), " +
                             std::to_string(nrep) + " reps, " + std::to_string(nmpiruns) +
                             " mpiruns",
               machine, opt);

  const std::string sync_label = "top/hca3/" + std::to_string(scaled(1000, opt.scale, 30)) +
                                 "/skampi_offset/" + std::to_string(scaled(100, opt.scale, 10)) +
                                 "/bottom/clockpropagation";

  const std::vector<std::int64_t> msizes{4, 8, 16, 32, 64, 128, 256, 512, 1024};
  // All (msize, run) mpiruns are independent; the seed depends only on the
  // run index, as in the sequential loop this replaces.
  runner::TrialRunner pool(opt.jobs);
  const std::vector<Point> points = pool.map(
      static_cast<int>(msizes.size()) * nmpiruns, opt.seed, [&](const runner::Trial& trial) {
        return one_mpirun(machine, msizes[static_cast<std::size_t>(trial.index / nmpiruns)], nrep,
                          sync_label,
                          opt.seed + static_cast<std::uint64_t>(trial.index % nmpiruns),
                          opt.shards);
      });

  util::Table table({"msize_B", "IMB_us", "OSU_us", "Repro_us", "Repro_min_us", "Repro_max_us",
                     "IMB/Repro", "OSU/Repro"});
  for (std::size_t msize_idx = 0; msize_idx < msizes.size(); ++msize_idx) {
    const std::int64_t msize = msizes[msize_idx];
    std::vector<double> imb, osu, repro;
    for (int run = 0; run < nmpiruns; ++run) {
      const Point& p =
          points[msize_idx * static_cast<std::size_t>(nmpiruns) + static_cast<std::size_t>(run)];
      imb.push_back(p.imb_us);
      osu.push_back(p.osu_us);
      repro.push_back(p.repro_us);
    }
    table.add_row({std::to_string(msize), util::fmt(util::mean(imb), 2),
                   util::fmt(util::mean(osu), 2), util::fmt(util::mean(repro), 2),
                   util::fmt(util::min(repro), 2), util::fmt(util::max(repro), 2),
                   util::fmt(util::mean(imb) / util::mean(repro), 2),
                   util::fmt(util::mean(osu) / util::mean(repro), 2)});
  }
  table.print(std::cout);
  if (opt.csv) table.print_csv(std::cout);
  std::cout << "\nShape check: both barrier-based series grow with message size along with\n"
               "Round-Time; the max-based IMB series is clearly inflated (>1.3x) at small\n"
               "sizes and converges towards Repro by 1 KiB.  The mean-based OSU series shows\n"
               "only a weak bias in this simulator (see EXPERIMENTS.md for the deviation\n"
               "discussion vs. the paper's Fig. 9).\n";
  return 0;
}
