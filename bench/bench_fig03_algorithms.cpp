// Fig. 3 — synchronization duration vs. maximum clock offset for the flat
// algorithm family (HCA, HCA2, HCA3, JK), measured right after the sync (a)
// and 10 s later (b); Jupiter, 32 x 16 = 512 ranks, 10 mpiruns.
//
// Expected shape (paper §III-C3): all algorithms are accurate at t=0; after
// 10 s HCA3 beats HCA2 beats HCA; JK is accurate at this size but needs
// O(p) time — roughly an order of magnitude longer than HCA3.
#include <iostream>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace hcs;
  using namespace hcs::bench;
  const BenchOptions opt = parse_common_extra(argc, argv, 0.1, kFaultFlags).opt;
  const Observability obs(opt);
  const auto machine = topology::jupiter().with_nodes(32);

  const int nfit = scaled(1000, opt.scale, 40);
  const int npp = scaled(100, opt.scale, 10);
  // The paper: "only 20 ping-pongs are required for JK to obtain these good
  // results" — JK's exchanges are never scaled below that.
  const int npp_jk = scaled(20, opt.scale, 20);
  const int nmpiruns = 10;
  print_header("Fig. 3",
               "max clock offset vs. sync duration, 0 s and 10 s after sync, " +
                   std::to_string(nmpiruns) + " mpiruns",
               machine, opt);

  const std::vector<std::string> labels = {
      "hca/" + std::to_string(nfit) + "/skampi_offset/" + std::to_string(npp),
      "hca2/recompute_intercept/" + std::to_string(nfit) + "/skampi_offset/" +
          std::to_string(npp),
      "hca3/recompute_intercept/" + std::to_string(nfit) + "/skampi_offset/" +
          std::to_string(npp),
      "jk/" + std::to_string(nfit) + "/skampi_offset/" + std::to_string(npp_jk),
  };

  run_and_print_sync_experiment(machine, labels, nmpiruns, 10.0, 1.0, opt);
  std::cout << "\nShape check: jk duration >> hca3 duration; hca3 offset at 10 s <= hca2 <= hca "
               "(on average).\n";
  return 0;
}
