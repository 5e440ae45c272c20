// Ablation — Round-Time vs. the window scheme under injected latency
// outliers (paper §II / §V-A: "one outlier ... can cause a large number of
// subsequent measurements to be invalidated" with fixed windows, which
// Round-Time avoids by re-announcing the next start after every rep).
// Also sweeps Round-Time's slack factor B.
#include <iostream>

#include "clocksync/factory.hpp"
#include "common.hpp"
#include "mpibench/roundtime_scheme.hpp"
#include "mpibench/window_scheme.hpp"
#include "simmpi/world.hpp"

namespace hcs::bench {
namespace {

struct SchemeOutcome {
  int valid = 0;
  int invalid = 0;
  double median_runtime_us = 0.0;
};

template <typename RunFn>
SchemeOutcome run_scheme(const topology::MachineConfig& machine, const std::string& sync_label,
                         std::uint64_t seed, int shards, RunFn scheme_fn) {
  simmpi::World world(machine, seed, {}, shards);
  SchemeOutcome outcome;
  world.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto sync = hcs::clocksync::make_sync(sync_label);
    const auto g =
        clean_clock(co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock()), sync_label);
    const mpibench::MeasurementResult m = co_await scheme_fn(ctx, *g);
    if (ctx.rank() == 0) {
      outcome.valid = m.valid_reps();
      outcome.invalid = m.invalid_reps;
      if (!m.global_runtimes.empty()) {
        outcome.median_runtime_us = util::median(m.global_runtimes) * 1e6;
      }
    }
  });
  return outcome;
}

}  // namespace
}  // namespace hcs::bench

int main(int argc, char** argv) {
  using namespace hcs;
  using namespace hcs::bench;
  const BenchOptions opt = parse_common(argc, argv, 0.5);
  const Observability obs(opt);

  // Spiky network: ~1 outlier of mean 300 us per few hundred messages.
  auto machine = topology::jupiter().with_nodes(8);
  machine.net.inter_node.spike_prob = 2e-3;
  machine.net.inter_node.spike_mean = 300e-6;
  const int nrep = scaled(200, opt.scale, 40);
  print_header("Ablation (Round-Time)",
               "window scheme vs. Round-Time under latency outliers, " + std::to_string(nrep) +
                   " reps requested",
               machine, opt);

  const std::string sync_label = "hca3/recompute_intercept/" +
                                 std::to_string(scaled(500, opt.scale, 30)) + "/skampi_offset/" +
                                 std::to_string(scaled(100, opt.scale, 10));
  const mpibench::CollectiveOp op = mpibench::make_allreduce_op(8);

  util::Table table({"scheme", "valid_reps", "invalid_reps", "median_runtime_us"});

  // Window-scheme and Round-Time trials are all independent mpiruns.
  runner::TrialRunner pool(opt.jobs);
  const std::vector<double> windows_us{40.0, 80.0, 400.0};
  const std::vector<SchemeOutcome> window_outcomes =
      pool.map(static_cast<int>(windows_us.size()), opt.seed, [&](const runner::Trial& trial) {
        const double window_us = windows_us[static_cast<std::size_t>(trial.index)];
        return run_scheme(machine, sync_label, opt.seed, opt.shards,
                          [&](simmpi::RankCtx& ctx, vclock::Clock& g) {
                            mpibench::WindowSchemeParams params;
                            params.nrep = nrep;
                            params.window = window_us * 1e-6;
                            return mpibench::run_window_scheme(ctx.comm_world(), g, op, params);
                          });
      });
  const std::vector<double> slacks{1.5, 3.0, 10.0};
  const std::vector<SchemeOutcome> slack_outcomes =
      pool.map(static_cast<int>(slacks.size()), opt.seed, [&](const runner::Trial& trial) {
        const double slack = slacks[static_cast<std::size_t>(trial.index)];
        return run_scheme(machine, sync_label, opt.seed, opt.shards,
                          [&](simmpi::RankCtx& ctx, vclock::Clock& g) {
                            mpibench::RoundTimeParams params;
                            params.max_nrep = nrep;
                            params.slack_factor = slack;
                            return mpibench::run_roundtime_scheme(ctx.comm_world(), g, op, params);
                          });
      });
  for (std::size_t i = 0; i < windows_us.size(); ++i) {
    const SchemeOutcome& outcome = window_outcomes[i];
    table.add_row({"window/" + util::fmt(windows_us[i], 0) + "us", std::to_string(outcome.valid),
                   std::to_string(outcome.invalid), util::fmt(outcome.median_runtime_us, 2)});
  }
  for (std::size_t i = 0; i < slacks.size(); ++i) {
    const SchemeOutcome& outcome = slack_outcomes[i];
    table.add_row({"round-time/B=" + util::fmt(slacks[i], 1), std::to_string(outcome.valid),
                   std::to_string(outcome.invalid), util::fmt(outcome.median_runtime_us, 2)});
  }
  table.print(std::cout);
  if (opt.csv) table.print_csv(std::cout);
  std::cout << "\nShape check: tight windows lose many reps to the outlier cascade; Round-Time "
               "reaches the requested rep count with few invalidations at any B.\n";
  return 0;
}
