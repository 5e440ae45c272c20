// Ablation — the accuracy/duration trade-off over the two tuning knobs the
// paper names in §III-C3: the number of fit points and the number of
// ping-pongs per fit point, for HCA3 on Jupiter.
//
// Expected: duration grows ~linearly in nfitpoints x pingpongs; the 10 s
// accuracy improves with both (longer fit window => better slope), with
// diminishing returns.
#include <iostream>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace hcs;
  using namespace hcs::bench;
  const BenchOptions opt = parse_common(argc, argv, 0.25);
  const Observability obs(opt);
  const auto machine = topology::jupiter().with_nodes(16);  // 256 ranks
  const int nmpiruns = 3;
  print_header("Ablation (fit points / ping-pongs)", "HCA3 parameter sweep", machine, opt);

  struct Cell {
    int nfit, npp;
    std::string label;
  };
  std::vector<Cell> cells;
  for (const int nfit_base : {100, 300, 1000}) {
    for (const int npp_base : {10, 30, 100}) {
      const int nfit = scaled(nfit_base, opt.scale, 20);
      const int npp = scaled(npp_base, opt.scale, 5);
      cells.push_back({nfit, npp,
                       "hca3/recompute_intercept/" + std::to_string(nfit) + "/skampi_offset/" +
                           std::to_string(npp)});
    }
  }
  // Flatten (cell, run); the seed depends only on the run index, as in the
  // sequential loop this replaces.
  runner::TrialRunner pool(opt.jobs);
  const std::vector<SyncAccuracyPoint> points = pool.map(
      static_cast<int>(cells.size()) * nmpiruns, opt.seed, [&](const runner::Trial& trial) {
        return run_sync_accuracy(machine,
                                 cells[static_cast<std::size_t>(trial.index / nmpiruns)].label,
                                 10.0, 1.0,
                                 opt.seed + static_cast<std::uint64_t>(trial.index % nmpiruns),
                                 {}, opt.shards);
      });

  util::Table table({"nfitpoints", "pingpongs", "mean_duration_s", "mean_offset_0s_us",
                     "mean_offset_10s_us"});
  for (std::size_t cell_idx = 0; cell_idx < cells.size(); ++cell_idx) {
    std::vector<double> durations, t0s, t1s;
    for (int run = 0; run < nmpiruns; ++run) {
      const SyncAccuracyPoint& p =
          points[cell_idx * static_cast<std::size_t>(nmpiruns) + static_cast<std::size_t>(run)];
      durations.push_back(p.duration);
      t0s.push_back(p.max_offset_t0);
      t1s.push_back(p.max_offset_t1);
    }
    table.add_row({std::to_string(cells[cell_idx].nfit), std::to_string(cells[cell_idx].npp),
                   util::fmt(util::mean(durations), 4), util::fmt_us(util::mean(t0s), 3),
                   util::fmt_us(util::mean(t1s), 3)});
  }
  table.print(std::cout);
  if (opt.csv) table.print_csv(std::cout);
  std::cout << "\nShape check: the 10 s column improves down/right (longer fit windows); "
               "duration grows proportionally.\n";
  return 0;
}
