// Fig. 4 — flat HCA3 vs. the hierarchical H2HCA (HCA3 between node leaders +
// ClockPropSync within nodes); Jupiter, 32 x 16 = 512 ranks, 10 mpiruns.
//
// Expected shape: the hierarchical variants are faster (5 tree levels
// instead of 9, minus comm-creation overhead) and at least as accurate.
#include <iostream>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace hcs;
  using namespace hcs::bench;
  const BenchOptions opt = parse_common_extra(argc, argv, 0.1, kFaultFlags).opt;
  const Observability obs(opt);
  const auto machine = topology::jupiter().with_nodes(32);

  const int npp = scaled(100, opt.scale, 10);
  const int nfit_hi = scaled(1000, opt.scale, 40);
  const int nfit_lo = scaled(500, opt.scale, 20);
  const int nmpiruns = 10;
  print_header("Fig. 4", "HCA3 vs. H2HCA (Top hca3 / Bottom ClockPropagation), 10 mpiruns",
               machine, opt);

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
  std::cout << "\nShape check: Top/.../Bottom rows are faster than the flat hca3 rows at equal "
               "fit points, with comparable or better accuracy.\n";
  return 0;
}
