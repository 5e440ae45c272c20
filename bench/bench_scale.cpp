// bench_scale — million-rank-scale sweep: HCA3 vs. the sequential JK
// baseline on Titan-topology machines from 16,384 to 131,072 ranks.
//
// Two tables per run:
//   - the results table on stdout is fully deterministic (simulated sync
//     duration, accuracy, total events processed): byte-identical for any
//     --jobs or --shards combination — the `scale` ctest slice
//     asserts exactly this at smoke size, and scripts/bench_perf.sh's
//     fig_scale mode re-asserts it at sweep size;
//   - the host table on stderr carries what depends on the machine running
//     the simulator (wall-clock seconds, events/second, peak RSS and the
//     coroutine-frame-pool reservation) and is the evidence for the slab
//     allocation work (BENCH_pr7.json).
//
// --ranks R[,R...] overrides the sweep (each R rounds up to whole 16-core
// Titan nodes), which is how the smoke tests keep this binary cheap.
#include <algorithm>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "clocksync/factory.hpp"
#include "clocksync/skampi_offset.hpp"
#include "common.hpp"
#include "sim/frame_pool.hpp"
#include "simmpi/world.hpp"
#include "util/host_clock.hpp"

namespace {

using namespace hcs;
using namespace hcs::bench;

struct ScalePoint {
  double sync_duration = 0.0;  // max over ranks, simulated seconds
  double max_offset_t0 = 0.0;  // right after sync
  double max_offset_t1 = 0.0;  // 1 s (simulated) later
  std::uint64_t events = 0;    // events processed by the World
  double wall_s = 0.0;         // host seconds for the whole World run
  std::size_t peak_rss = 0;    // process high-water mark after this point
  std::size_t pool_bytes = 0;  // frame-pool slab reservation after this point
};

ScalePoint run_scale_point(const topology::MachineConfig& machine, const std::string& label,
                           std::uint64_t seed, int shards, double sample_fraction) {
  const double wall0 = util::host_seconds();
  simmpi::World world(machine, seed, {}, shards);
  ScalePoint point;
  const std::vector<int> clients =
      clocksync::sample_clients(world.size(), 0, sample_fraction, seed ^ 0xabcdefULL);
  // Per-rank slots instead of a shared accumulator: rank programs run on
  // shard worker threads, so the max is folded after the run.
  std::vector<double> durations(static_cast<std::size_t>(world.size()), 0.0);
  world.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto sync = clocksync::make_sync(label);
    const sim::Time begin = ctx.sim().now();
    const clocksync::SyncResult res =
        co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
    if (!res.report.clean()) {
      throw std::runtime_error("bench_scale: sync reported degraded health for " + label);
    }
    durations[static_cast<std::size_t>(ctx.rank())] = ctx.sim().now() - begin;
    clocksync::SKaMPIOffset oalg(10);
    const clocksync::AccuracyResult acc = co_await clocksync::check_clock_accuracy(
        ctx.comm_world(), *res.clock, oalg, 1.0, clients);
    if (ctx.rank() == 0) {
      point.max_offset_t0 = acc.max_abs_t0;
      point.max_offset_t1 = acc.max_abs_t1;
    }
  });
  point.sync_duration = *std::max_element(durations.begin(), durations.end());
  point.events = world.events_processed();
  point.wall_s = util::host_seconds() - wall0;
  point.peak_rss = peak_rss_bytes();
  point.pool_bytes = sim::detail::FramePool::reserved_bytes();
  return point;
}

std::vector<int> parse_ranks(const std::string& spec) {
  std::vector<int> ranks;
  std::stringstream ss(spec);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    const int r = util::parse_int(tok, "--ranks");
    if (r < 16) throw std::invalid_argument("--ranks: each entry must be >= 16, got " + tok);
    ranks.push_back(r);
  }
  if (ranks.empty()) throw std::invalid_argument("--ranks: empty list");
  return ranks;
}

std::string fmt_mib(std::size_t bytes) {
  return util::fmt(static_cast<double>(bytes) / (1024.0 * 1024.0), 1);
}

}  // namespace

int main(int argc, char** argv) {
  const ParsedBench parsed = parse_common_extra(
      argc, argv, 0.05,
      {{"ranks", "LIST",
        "comma-separated rank counts to sweep, each rounded up to whole 16-core Titan "
        "nodes (default 16384,65536,131072)"}});
  const BenchOptions& opt = parsed.opt;
  const Observability obs(opt);

  std::vector<int> ranks = {16384, 65536, 131072};
  try {
    if (parsed.cli.has("ranks")) ranks = parse_ranks(parsed.cli.get("ranks", ""));
  } catch (const std::exception& e) {
    std::cerr << parsed.cli.program() << ": " << e.what() << "\n";
    return 2;
  }

  const int npp = scaled(100, opt.scale, 8);
  const int nfit = scaled(1000, opt.scale, 30);
  const std::vector<std::string> labels = {
      "hca3/" + std::to_string(nfit) + "/skampi_offset/" + std::to_string(npp),
      "jk/" + std::to_string(nfit) + "/skampi_offset/" + std::to_string(npp),
  };

  print_header("bench_scale", "HCA3 vs. sequential JK across Titan node counts",
               topology::titan(), opt);

  // (ranks, label) pairs flattened into one trial list so --jobs composes;
  // results come back in trial order, keeping the tables deterministic.
  struct Job {
    topology::MachineConfig machine;
    int ranks = 0;
    std::string label;
  };
  std::vector<Job> sweep;
  for (const int r : ranks) {
    const int nodes = (r + 15) / 16;  // Titan is 16 cores per node
    const topology::MachineConfig machine = topology::titan().with_nodes(nodes);
    for (const std::string& label : labels) sweep.push_back({machine, nodes * 16, label});
  }

  runner::TrialRunner pool(opt.jobs);
  const std::vector<ScalePoint> points =
      pool.map(static_cast<int>(sweep.size()), opt.seed, [&](const runner::Trial& trial) {
        const Job& job = sweep[static_cast<std::size_t>(trial.index)];
        // Accuracy sampling caps at ~2000 clients so the serial
        // check-global-clock phase stays flat as ranks grow; the fraction
        // depends only on the rank count, so output stays deterministic.
        const double sample_fraction =
            std::min(0.10, 2000.0 / static_cast<double>(job.ranks));
        return run_scale_point(job.machine, job.label, opt.seed, opt.shards, sample_fraction);
      });

  util::Table results({"algorithm", "ranks", "sync_duration_s", "max_offset_0s_us",
                       "max_offset_1s_us", "events"});
  util::Table host({"algorithm", "ranks", "wall_s", "events_per_s", "peak_rss_mib",
                    "frame_pool_mib"});
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const Job& job = sweep[i];
    const ScalePoint& p = points[i];
    results.add_row({job.label, std::to_string(job.ranks), util::fmt(p.sync_duration, 4),
                     util::fmt_us(p.max_offset_t0, 3), util::fmt_us(p.max_offset_t1, 3),
                     std::to_string(p.events)});
    const double eps = p.wall_s > 0.0 ? static_cast<double>(p.events) / p.wall_s : 0.0;
    host.add_row({job.label, std::to_string(job.ranks), util::fmt(p.wall_s, 2),
                  util::fmt(eps, 0), fmt_mib(p.peak_rss), fmt_mib(p.pool_bytes)});
  }
  results.print(std::cout);
  if (opt.csv) results.print_csv(std::cout);

  // Host-dependent numbers go to stderr so stdout stays byte-identical
  // across shard counts and job counts.
  std::cerr << "\n--- host metrics (non-deterministic; machine-dependent; shards: "
            << opt.shards << ") ---\n";
  host.print(std::cerr);
  if (opt.csv) host.print_csv(std::cerr);
  record_memory_metrics();

  std::cout << "\nShape check: JK's sync_duration grows linearly with ranks while HCA3's "
               "grows with the tree depth (log p); events grow ~linearly for both.\n";
  return 0;
}
