// Ablation — H3HCA vs. H2HCA (paper §IV-D/§IV-E).
//
// The paper: "We do not show experimental results for H3HCA, as they were
// found to be almost identical to the ones produced by H2HCA.  Since the
// compute nodes in our experiments have a common time source, we can treat
// all cores on a particular node equally."  This bench verifies both halves:
// on a per-node-time-source machine H3 adds a level without changing the
// result; on a per-SOCKET-time-source machine H3 (with ClockPropSync only at
// socket scope) is the correct scheme while H2's node-wide ClockPropSync
// would violate its applicability condition.
#include <algorithm>
#include <iostream>

#include "clocksync/clock_prop.hpp"
#include "clocksync/hca3.hpp"
#include "clocksync/hierarchical.hpp"
#include "clocksync/skampi_offset.hpp"
#include "common.hpp"
#include "simmpi/world.hpp"
#include "vclock/global_clock.hpp"

namespace hcs::bench {
namespace {

std::unique_ptr<clocksync::ClockSync> make_level(int nfit, int npp) {
  return std::make_unique<clocksync::HCA3Sync>(clocksync::SyncConfig{nfit, true},
                                               std::make_unique<clocksync::SKaMPIOffset>(npp));
}

struct Outcome {
  double duration = 0.0;
  double max_offset_us = 0.0;
};

Outcome run(const topology::MachineConfig& machine, int levels, int nfit, int npp,
            std::uint64_t seed, int shards) {
  simmpi::World world(machine, seed, {}, shards);
  const int p = world.size();
  std::vector<vclock::ClockPtr> clocks(static_cast<std::size_t>(p));
  // Per-rank slots instead of shared accumulators: rank programs run on
  // shard worker threads, so the maxima are folded after the run.
  std::vector<double> durations(static_cast<std::size_t>(p), 0.0);
  std::vector<sim::Time> ends(static_cast<std::size_t>(p), 0.0);
  world.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    std::unique_ptr<clocksync::ClockSync> sync;
    if (levels == 2) {
      sync = clocksync::make_h2hca(make_level(nfit, npp),
                                   std::make_unique<clocksync::ClockPropSync>());
    } else {
      sync = clocksync::make_h3hca(make_level(nfit, npp), make_level(nfit / 2, npp),
                                   std::make_unique<clocksync::ClockPropSync>());
    }
    const sim::Time begin = ctx.sim().now();
    clocks[static_cast<std::size_t>(ctx.rank())] =
        clean_clock(co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock()), sync->name());
    durations[static_cast<std::size_t>(ctx.rank())] = ctx.sim().now() - begin;
    ends[static_cast<std::size_t>(ctx.rank())] = ctx.sim().now();
  });
  Outcome outcome;
  outcome.duration = *std::max_element(durations.begin(), durations.end());
  const sim::Time end = *std::max_element(ends.begin(), ends.end());
  for (int r = 1; r < p; ++r) {
    outcome.max_offset_us = std::max(
        outcome.max_offset_us, std::abs(clocks[static_cast<std::size_t>(r)]->at_exact(end) -
                                        clocks[0]->at_exact(end)) *
                                   1e6);
  }
  return outcome;
}

}  // namespace
}  // namespace hcs::bench

int main(int argc, char** argv) {
  using namespace hcs;
  using namespace hcs::bench;
  const BenchOptions opt = parse_common(argc, argv, 0.25);
  const Observability obs(opt);
  const int nfit = scaled(1000, opt.scale, 50);
  const int npp = scaled(100, opt.scale, 10);
  const int nmpiruns = 3;

  util::Table table({"machine (time source)", "scheme", "mean_duration_s", "mean_max_offset_us"});
  const auto per_node = topology::jupiter().with_nodes(16);
  const auto per_socket =
      topology::jupiter().with_nodes(16).with_time_source(topology::TimeSourceScope::kPerSocket);
  print_header("Ablation (H3HCA)", "two vs. three architectural levels", per_node, opt);

  struct Case {
    const topology::MachineConfig* machine;
    std::string label;
    int levels;
  };
  const std::vector<Case> cases = {
      {&per_node, "per-node / H2HCA", 2},
      {&per_node, "per-node / H3HCA", 3},
      {&per_socket, "per-socket / H3HCA", 3},
  };
  // Flatten (case, run); the seed depends only on the run index, as in the
  // sequential loop this replaces.
  runner::TrialRunner pool(opt.jobs);
  const std::vector<Outcome> outcomes = pool.map(
      static_cast<int>(cases.size()) * nmpiruns, opt.seed, [&](const runner::Trial& trial) {
        const Case& c = cases[static_cast<std::size_t>(trial.index / nmpiruns)];
        return run(*c.machine, c.levels, nfit, npp,
                   opt.seed + static_cast<std::uint64_t>(trial.index % nmpiruns), opt.shards);
      });
  for (std::size_t case_idx = 0; case_idx < cases.size(); ++case_idx) {
    const Case& c = cases[case_idx];
    std::vector<double> durations, offsets;
    for (int r = 0; r < nmpiruns; ++r) {
      const Outcome& o =
          outcomes[case_idx * static_cast<std::size_t>(nmpiruns) + static_cast<std::size_t>(r)];
      durations.push_back(o.duration);
      offsets.push_back(o.max_offset_us);
    }
    table.add_row({c.label, c.levels == 2 ? "H2" : "H3", util::fmt(util::mean(durations), 4),
                   util::fmt(util::mean(offsets), 3)});
  }
  table.print(std::cout);
  if (opt.csv) table.print_csv(std::cout);
  std::cout << "\nShape check: on per-node time sources H3 is 'almost identical' to H2 "
               "(paper §IV-E); on per-socket sources H3 still yields a us-level clock, the "
               "configuration H2's node-wide ClockPropSync could not handle correctly.\n";
  return 0;
}
