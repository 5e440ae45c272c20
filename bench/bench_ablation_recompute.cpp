// Ablation — the recompute_intercept flag (paper Algorithm 2): re-anchoring
// the model's intercept with one extra offset measurement after the linear
// regression.  Expected: better immediate accuracy for HCA2/HCA3 at a small
// extra cost; the effect fades at the 10 s horizon where slope error
// dominates.
#include <iostream>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace hcs;
  using namespace hcs::bench;
  const BenchOptions opt = parse_common_extra(argc, argv, 0.1, kFaultFlags).opt;
  const Observability obs(opt);
  const auto machine = topology::jupiter().with_nodes(16);  // 256 ranks

  const int nfit = scaled(1000, opt.scale, 40);
  const int npp = scaled(100, opt.scale, 10);
  const int nmpiruns = 5;
  print_header("Ablation (recompute_intercept)", "with vs. without the intercept re-anchor",
               machine, opt);

  std::vector<std::string> labels;
  for (const std::string algo : {"hca2", "hca3"}) {
    labels.push_back(algo + "/recompute_intercept/" + std::to_string(nfit) + "/skampi_offset/" +
                     std::to_string(npp));
    labels.push_back(algo + "/" + std::to_string(nfit) + "/skampi_offset/" +
                     std::to_string(npp));
  }
  run_and_print_sync_experiment(machine, labels, nmpiruns, 10.0, 1.0, opt);
  std::cout << "\nShape check: recompute_intercept improves (or matches) the 0 s column for "
               "both algorithms.\n";
  return 0;
}
