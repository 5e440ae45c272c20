// Fig. 8 — exit imbalance introduced by MPI_Barrier algorithms; Jupiter,
// 32 x 16 = 512 ranks, 500 barrier calls per mpirun, 5 mpiruns (2500 points
// per algorithm in the paper).
//
// Expected shape: the "double ring" barrier is by far the worst (O(p)
// staggered exits); among the log-p algorithms, "tree" shows the smallest
// average imbalance, with bruck / recursive doubling penalized by their
// bursty all-to-all rounds contending at the NICs.
#include <iostream>

#include "clocksync/factory.hpp"
#include "common.hpp"
#include "mpibench/imbalance.hpp"
#include "util/histogram.hpp"
#include "simmpi/world.hpp"

namespace hcs::bench {
namespace {

std::vector<double> one_mpirun(const topology::MachineConfig& machine, simmpi::BarrierAlgo algo,
                               int ncalls, const std::string& sync_label, std::uint64_t seed,
                               int shards) {
  simmpi::World world(machine, seed, {}, shards);
  std::vector<double> imbalances;
  world.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto sync = hcs::clocksync::make_sync(sync_label);
    const auto g =
        clean_clock(co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock()), sync_label);
    mpibench::ImbalanceParams params;
    params.ncalls = ncalls;
    const auto result =
        co_await mpibench::measure_barrier_imbalance(ctx.comm_world(), *g, algo, params);
    if (ctx.rank() == 0) imbalances = result;
  });
  return imbalances;
}

}  // namespace
}  // namespace hcs::bench

int main(int argc, char** argv) {
  using namespace hcs;
  using namespace hcs::bench;
  const BenchOptions opt = parse_common(argc, argv, 0.1);
  const Observability obs(opt);
  const auto machine = topology::jupiter().with_nodes(32);
  const int ncalls = scaled(500, opt.scale, 40);
  const int nmpiruns = 5;
  print_header("Fig. 8", "barrier exit imbalance distributions, " + std::to_string(ncalls) +
                             " calls x " + std::to_string(nmpiruns) + " mpiruns",
               machine, opt);

  const std::string sync_label = "hca3/recompute_intercept/" +
                                 std::to_string(scaled(1000, opt.scale, 40)) +
                                 "/skampi_offset/" + std::to_string(scaled(100, opt.scale, 10));

  const std::vector<simmpi::BarrierAlgo> algos{
      simmpi::BarrierAlgo::kBruck, simmpi::BarrierAlgo::kDoubleRing,
      simmpi::BarrierAlgo::kRecursiveDoubling, simmpi::BarrierAlgo::kTree};
  // All (algo, run) mpiruns are independent; the seed depends only on the
  // run index, as in the sequential loop this replaces.
  runner::TrialRunner pool(opt.jobs);
  const auto runs = pool.map(static_cast<int>(algos.size()) * nmpiruns, opt.seed,
                             [&](const runner::Trial& trial) {
                               return one_mpirun(
                                   machine, algos[static_cast<std::size_t>(trial.index / nmpiruns)],
                                   ncalls, sync_label,
                                   opt.seed + static_cast<std::uint64_t>(trial.index % nmpiruns),
                                   opt.shards);
                             });

  util::Table table({"barrier", "n", "min_us", "q25_us", "median_us", "q75_us", "max_us",
                     "mean_us"});
  for (std::size_t algo_idx = 0; algo_idx < algos.size(); ++algo_idx) {
    const simmpi::BarrierAlgo algo = algos[algo_idx];
    std::vector<double> pooled;
    for (int run = 0; run < nmpiruns; ++run) {
      const auto& imbalances =
          runs[algo_idx * static_cast<std::size_t>(nmpiruns) + static_cast<std::size_t>(run)];
      pooled.insert(pooled.end(), imbalances.begin(), imbalances.end());
    }
    const util::Summary s = util::summarize(pooled);
    table.add_row({simmpi::to_string(algo), std::to_string(s.n), util::fmt_us(s.min, 2),
                   util::fmt_us(s.q25, 2), util::fmt_us(s.median, 2), util::fmt_us(s.q75, 2),
                   util::fmt_us(s.max, 2), util::fmt_us(s.mean, 2)});
    std::cout << "distribution for '" << simmpi::to_string(algo) << "' [us]:\n";
    util::print_histogram(std::cout, util::make_histogram(pooled, 10), 40, 1e6, "us");
    std::cout << "\n";
  }
  table.print(std::cout);
  if (opt.csv) table.print_csv(std::cout);
  std::cout << "\nShape check: 'double ring' worst by an order of magnitude; 'tree' has the "
               "smallest mean imbalance.\n";
  return 0;
}
