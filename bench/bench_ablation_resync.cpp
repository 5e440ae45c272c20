// Ablation (extension) — periodic re-synchronization.
//
// §III-C2 of the paper bounds the useful life of a linear clock model to
// roughly 0-20 s.  This bench quantifies that: a long-running measurement
// session keeps its global clock either from a single synchronization or
// from a ResyncManager with varying intervals, and we report the residual
// clock disagreement at the end of the session.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "clocksync/factory.hpp"
#include "clocksync/resync.hpp"
#include "common.hpp"
#include "simmpi/world.hpp"

namespace hcs::bench {
namespace {

struct Outcome {
  double residual_us = 0.0;
  int resyncs = 0;
  double sync_cost_s = 0.0;  // total time spent synchronizing
};

Outcome run_session(const topology::MachineConfig& machine, double interval,
                    double session_s, const std::string& label, std::uint64_t seed,
                    int shards) {
  simmpi::World world(machine, seed, {}, shards);
  const int p = world.size();
  std::vector<vclock::ClockPtr> clocks(static_cast<std::size_t>(p));
  Outcome outcome;  // written by rank 0 only
  // Per-rank end times, folded after the run: rank programs run on shard
  // worker threads.
  std::vector<sim::Time> ends(static_cast<std::size_t>(p), 0.0);
  world.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    clocksync::ResyncManager mgr(hcs::clocksync::make_sync(label), interval);
    const int steps = static_cast<int>(session_s);
    for (int i = 0; i < steps; ++i) {
      const sim::Time t0 = ctx.sim().now();
      clocks[static_cast<std::size_t>(ctx.rank())] =
          clean_clock(co_await mgr.tick(ctx.comm_world(), ctx.base_clock()), label);
      if (ctx.rank() == 0) outcome.sync_cost_s += ctx.sim().now() - t0;
      co_await ctx.sim().delay(1.0);
    }
    if (ctx.rank() == 0) outcome.resyncs = mgr.resyncs();
    ends[static_cast<std::size_t>(ctx.rank())] = ctx.sim().now();
  });
  const sim::Time end = *std::max_element(ends.begin(), ends.end());
  for (int r = 1; r < p; ++r) {
    outcome.residual_us = std::max(
        outcome.residual_us, std::abs(clocks[static_cast<std::size_t>(r)]->at_exact(end) -
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
  const auto machine = topology::jupiter().with_nodes(8);
  const double session_s = 60.0;
  print_header("Ablation (periodic re-sync, extension)",
               "residual clock error after a " + util::fmt(session_s, 0) +
                   " s measurement session",
               machine, opt);

  const std::string label = "hca3/recompute_intercept/" +
                            std::to_string(scaled(1000, opt.scale, 50)) + "/skampi_offset/" +
                            std::to_string(scaled(100, opt.scale, 10));

  // Each interval's session is an independent mpirun — fan them out.
  const std::vector<double> intervals{5.0, 10.0, 20.0, 60.0, 1e9};
  runner::TrialRunner pool(opt.jobs);
  const std::vector<Outcome> outcomes =
      pool.map(static_cast<int>(intervals.size()), opt.seed, [&](const runner::Trial& trial) {
        return run_session(machine, intervals[static_cast<std::size_t>(trial.index)], session_s,
                           label, opt.seed, opt.shards);
      });

  util::Table table({"resync_interval_s", "resyncs", "sync_cost_s", "residual_after_60s_us"});
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const double interval = intervals[i];
    const Outcome& o = outcomes[i];
    table.add_row({interval > 1e8 ? "never (one-shot)" : util::fmt(interval, 0),
                   std::to_string(o.resyncs), util::fmt(o.sync_cost_s, 3),
                   util::fmt(o.residual_us, 3)});
  }
  table.print(std::cout);
  if (opt.csv) table.print_csv(std::cout);
  std::cout << "\nShape check: the residual grows with the interval; re-syncing inside the "
               "paper's 0-20 s linearity horizon keeps it at the few-us level.\n";
  return 0;
}
