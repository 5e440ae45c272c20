// Ablation — the clock-offset building block (paper §III-A and the §III-C3
// finding that "it was often better to employ SKaMPI-Offset inside JK
// instead of the Mean-RTT-Offset algorithm").
//
// Runs JK and HCA3 with both offset algorithms on Jupiter and reports
// accuracy and duration.
#include <iostream>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace hcs;
  using namespace hcs::bench;
  const BenchOptions opt = parse_common_extra(argc, argv, 0.1, kFaultFlags).opt;
  const Observability obs(opt);
  const auto machine = topology::jupiter().with_nodes(8);  // 128 ranks: JK-friendly size

  const int nfit = scaled(1000, opt.scale, 40);
  const int npp = scaled(20, opt.scale, 20);
  const int nmpiruns = 5;
  print_header("Ablation (offset algorithm)",
               "SKaMPI-Offset vs. Mean-RTT-Offset inside JK and HCA3", machine, opt);

  const std::vector<std::string> labels = {
      "jk/" + std::to_string(nfit) + "/skampi_offset/" + std::to_string(npp),
      "jk/" + std::to_string(nfit) + "/mean_rtt_offset/" + std::to_string(npp),
      "hca3/recompute_intercept/" + std::to_string(nfit) + "/skampi_offset/" +
          std::to_string(npp),
      "hca3/recompute_intercept/" + std::to_string(nfit) + "/mean_rtt_offset/" +
          std::to_string(npp),
  };
  run_and_print_sync_experiment(machine, labels, nmpiruns, 10.0, 1.0, opt);
  std::cout << "\nShape check: skampi_offset rows beat their mean_rtt_offset counterparts in "
               "accuracy for the same algorithm.\n";
  return 0;
}
