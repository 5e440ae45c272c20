// Fig. 5 — the Fig. 4 experiment on Hydra (36 x 32 = 1152 ranks, OmniPath).
//
// Expected shape: all configurations very accurate right after sync (the
// paper reports < 0.2 us mean error on this low-latency network), visible
// drift after 10 s but H2HCA stays ~1 us.
#include <iostream>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace hcs;
  using namespace hcs::bench;
  const BenchOptions opt = parse_common_extra(argc, argv, 0.1, kFaultFlags).opt;
  const Observability obs(opt);
  const auto machine = topology::hydra();  // all 36 nodes x 32 ranks

  const int npp = scaled(100, opt.scale, 10);
  const int nfit_hi = scaled(1000, opt.scale, 40);
  const int nfit_lo = scaled(500, opt.scale, 20);
  const int nmpiruns = 10;
  print_header("Fig. 5", "HCA3 vs. H2HCA on Hydra (36 x 32 ranks), 10 mpiruns", machine, opt);

  auto flat = [&](int nfit) {
    return "hca3/recompute_intercept/" + std::to_string(nfit) + "/skampi_offset/" +
           std::to_string(npp);
  };
  auto hier = [&](int nfit) {
    return "top/hca3/" + std::to_string(nfit) + "/skampi_offset/" + std::to_string(npp) +
           "/bottom/clockpropagation";
  };
  const std::vector<std::string> labels = {flat(nfit_hi), flat(nfit_lo), hier(nfit_hi),
                                           hier(nfit_lo)};

  run_and_print_sync_experiment(machine, labels, nmpiruns, 10.0, 1.0, opt);
  std::cout << "\nShape check: offsets at 0 s are smaller than on Jupiter (faster network); "
               "after 10 s the drift-walk is visible but H2HCA stays small.\n";
  return 0;
}
