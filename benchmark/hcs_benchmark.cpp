// hcs_benchmark — the driver behind benchmark/run.py.
//
// Runs one named workload once (one repetition) and times, from outside,
// the calls into each layer's public API:
//   simmpi.ctor / simmpi.launch / simmpi.run / simmpi.teardown
//       the simmpi::World constructor, World::launch, World::run, ~World;
//   clocksync.sync / clocksync.accuracy
//       World::run split at the host instant the last rank returned from
//       ClockSync::sync_clocks (the rest is Check-Global-Clock, Alg. 6);
//   runner.map / trial
//       runner::TrialRunner::map and each trial body it ran.
// No span is recorded inside src/; the spans are kept in memory and
// written at exit.
//
// Outputs:
//   stdout           the workload's results table (CSV), deterministic for
//                    a seed and byte-identical for any --shards / --jobs;
//                    benchmark/expected/ holds the seed-1 goldens.
//   --spans-out FILE JSON: every span (name, start, end, parent, world,
//                    trial; seconds since process start) plus per-World
//                    host numbers (RSS growth across launch and run).
//   --metrics-out    the shared bench flag: the metrics registry's CSV.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "clocksync/factory.hpp"
#include "clocksync/skampi_offset.hpp"
#include "common.hpp"
#include "sim/frame_pool.hpp"
#include "simmpi/world.hpp"

namespace {

using namespace hcs;
using namespace hcs::bench;

// hcs-lint: allow-next-line(wall-clock) host timing is what this driver measures
using HostClock = std::chrono::steady_clock;
const HostClock::time_point kProcessStart = HostClock::now();

double host_now() {
  return std::chrono::duration<double>(HostClock::now() - kProcessStart).count();
}

// Current resident set size (VmRSS), in bytes; 0 where /proc is missing.
std::size_t current_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return static_cast<std::size_t>(std::stoll(line.substr(6))) * 1024;
    }
  }
  return 0;
}

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  // index into the log, -1 = root
  int world = -1;   // world index within the workload, -1 = none
  int trial = -1;   // runner trial index, -1 = none
};

// Spans of all threads (trial bodies run on runner workers), in open order.
class SpanLog {
 public:
  int open(const char* name, int parent, int world = -1, int trial = -1) {
    const double t = host_now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, t, t, parent, world, trial});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    const double t = host_now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }
  void add(const char* name, double start, double end, int parent, int world, int trial) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start, end, parent, world, trial});
  }
  double start_of(int id) {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_[static_cast<std::size_t>(id)].start;
  }
  double end_of(int id) {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_[static_cast<std::size_t>(id)].end;
  }
  const std::vector<Span>& spans() const { return spans_; }  // after all threads joined

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

// Check-Global-Clock settings of the paper's Figs. 3-6: 10 s between the two
// measurements, 20-exchange SKaMPI offsets (as bench::run_sync_accuracy).
constexpr double kWaitTime = 10.0;
constexpr int kAccuracyExchanges = 20;

struct WorldSpec {
  topology::MachineConfig machine;
  std::string label;
  std::uint64_t seed = 0;
  double sample_fraction = 1.0;
};

struct WorldResult {
  std::string label;
  int ranks = 0;
  double sync_duration = 0.0;  // max over ranks, simulated seconds
  double max_offset_t0 = 0.0;
  double max_offset_t1 = 0.0;
  int ok = 0, degraded = 0, failed = 0;
  std::uint64_t events = 0;
  std::string error;  // non-empty: the World threw; every rank counts failed
  std::size_t launch_rss_bytes = 0;  // VmRSS growth across launch
  std::size_t run_rss_bytes = 0;     // VmRSS growth across run
};

std::size_t growth(std::size_t before, std::size_t after) {
  return after > before ? after - before : 0;
}

// One mpirun of the paper's core experiment: sync, then Alg. 6 on the
// sampled clients, with every layer call timed from outside.
WorldResult run_world(const WorldSpec& spec, int shards, int world_id, int trial_id, int parent,
                      SpanLog& log) {
  WorldResult out;
  out.label = spec.label;
  out.ranks = spec.machine.topo.total_ranks();
  const std::size_t p = static_cast<std::size_t>(out.ranks);
  const int wspan = log.open("world", parent, world_id, trial_id);
  const std::vector<int> clients =
      clocksync::sample_clients(out.ranks, 0, spec.sample_fraction, spec.seed ^ 0xabcdefULL);

  // Per-rank slots, written by the owning rank (possibly on a shard worker
  // thread) and read after run() has joined the workers.
  std::vector<double> durations(p, 0.0);
  std::vector<double> synced_at(p, 0.0);  // host seconds
  std::vector<clocksync::SyncHealth> health(p, clocksync::SyncHealth::kFailed);
  clocksync::AccuracyResult accuracy;
  // Named and alive until the World is gone: the rank coroutines refer to
  // this closure for their whole lifetime.
  const simmpi::World::RankFn program = [&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    const std::size_t r = static_cast<std::size_t>(ctx.rank());
    auto sync = clocksync::make_sync(spec.label);
    const sim::Time begin = ctx.sim().now();
    const clocksync::SyncResult res =
        co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
    synced_at[r] = host_now();
    durations[r] = ctx.sim().now() - begin;
    health[r] = res.report.health;
    clocksync::SKaMPIOffset oalg(kAccuracyExchanges);
    clocksync::AccuracyResult acc = co_await clocksync::check_clock_accuracy(
        ctx.comm_world(), *res.clock, oalg, kWaitTime, clients);
    if (r == 0) accuracy = std::move(acc);
  };

  std::unique_ptr<simmpi::World> world;
  try {
    int span = log.open("simmpi.ctor", wspan, world_id, trial_id);
    world = std::make_unique<simmpi::World>(spec.machine, spec.seed, fault::FaultPlan{}, shards);
    log.close(span);

    const std::size_t rss0 = current_rss_bytes();
    span = log.open("simmpi.launch", wspan, world_id, trial_id);
    world->launch(program);
    log.close(span);
    const std::size_t rss1 = current_rss_bytes();
    out.launch_rss_bytes = growth(rss0, rss1);

    const int run_span = log.open("simmpi.run", wspan, world_id, trial_id);
    world->run();
    log.close(run_span);
    out.run_rss_bytes = growth(rss1, current_rss_bytes());
    const double run_start = log.start_of(run_span);
    const double run_end = log.end_of(run_span);
    const double sync_end =
        std::clamp(*std::max_element(synced_at.begin(), synced_at.end()), run_start, run_end);
    log.add("clocksync.sync", run_start, sync_end, run_span, world_id, trial_id);
    log.add("clocksync.accuracy", sync_end, run_end, run_span, world_id, trial_id);

    out.sync_duration = *std::max_element(durations.begin(), durations.end());
    out.max_offset_t0 = accuracy.max_abs_t0;
    out.max_offset_t1 = accuracy.max_abs_t1;
    for (const clocksync::SyncHealth h : health) {
      if (h == clocksync::SyncHealth::kOk) ++out.ok;
      if (h == clocksync::SyncHealth::kDegraded) ++out.degraded;
      if (h == clocksync::SyncHealth::kFailed) ++out.failed;
    }
  } catch (const std::exception& e) {
    out.error = e.what();
    out.ok = out.degraded = 0;
    out.failed = out.ranks;
  }
  if (world) {
    out.events = world->events_processed();
    const int span = log.open("simmpi.teardown", wspan, world_id, trial_id);
    world.reset();
    log.close(span);
  }
  log.close(wspan);
  return out;
}

struct Workload {
  std::vector<WorldSpec> worlds;
  int shards = 1;
  int jobs = 1;
};

// Fig. 6's two algorithms at 50 fit points and 8 ping-pongs per offset,
// one mpirun each, Alg. 6 on 10 % of the ranks.
std::vector<WorldSpec> titan_worlds(int nodes, std::uint64_t seed) {
  const topology::MachineConfig machine = topology::titan().with_nodes(nodes);
  return {{machine, "hca3/recompute_intercept/50/skampi_offset/8", seed, 0.10},
          {machine, "top/hca3/50/skampi_offset/8/bottom/clockpropagation", seed, 0.10}};
}

// Fig. 3 at --scale 0.2: the flat family on 32 x 16 Jupiter ranks, mpirun i
// of every algorithm with seed + i, Alg. 6 on every client.
std::vector<WorldSpec> jupiter_worlds(const std::vector<std::string>& labels, int nmpiruns,
                                      std::uint64_t seed) {
  const topology::MachineConfig machine = topology::jupiter().with_nodes(32);
  std::vector<WorldSpec> worlds;
  for (const std::string& label : labels) {
    for (int run = 0; run < nmpiruns; ++run) {
      worlds.push_back({machine, label, seed + static_cast<std::uint64_t>(run), 1.0});
    }
  }
  return worlds;
}

// Sizes keep one repetition to a few seconds, so a timed run holds several
// and reports their median; smoke sizes are 16 Titan nodes (256 ranks) and
// two Jupiter trials.
Workload make_workload(const std::string& name, bool smoke, std::uint64_t seed) {
  const int titan_nodes = smoke ? 16 : 256;
  if (name == "titan4k") return {titan_worlds(titan_nodes, seed), 1, 1};
  if (name == "titan4k_shards4") return {titan_worlds(titan_nodes, seed), 4, 1};
  if (name == "titan2k_jk_shards4") {
    const topology::MachineConfig machine = topology::titan().with_nodes(smoke ? 16 : 128);
    return {{{machine, "jk/50/skampi_offset/8", seed, 0.10}}, 4, 1};
  }
  if (name == "jupiter_trials") {
    if (smoke) {
      return {jupiter_worlds({"hca3/recompute_intercept/200/skampi_offset/20",
                              "jk/200/skampi_offset/20"},
                             1, seed),
              1, 4};
    }
    return {jupiter_worlds({"hca/200/skampi_offset/20",
                            "hca2/recompute_intercept/200/skampi_offset/20",
                            "hca3/recompute_intercept/200/skampi_offset/20",
                            "jk/200/skampi_offset/20"},
                           5, seed),
            1, 4};
  }
  throw std::invalid_argument("unknown --workload '" + name +
                              "' (known: titan4k, titan4k_shards4, titan2k_jk_shards4, "
                              "jupiter_trials)");
}

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\' << c;
    else if (static_cast<unsigned char>(c) < 0x20) os << ' ';
    else os << c;
  }
  os << '"';
}

void write_spans(const std::string& path, const SpanLog& log,
                 const std::vector<WorldResult>& worlds, int shards, int jobs) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("--spans-out: cannot open " + path);
  out.precision(17);
  out << "{\"shards\": " << shards << ", \"jobs\": " << jobs
      << ", \"frame_pool_bytes\": " << sim::detail::FramePool::reserved_bytes()
      << ",\n \"spans\": [";
  const std::vector<Span>& spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n  " : "\n  ") << "{\"name\": ";
    write_json_string(out, s.name);
    out << ", \"start\": " << s.start << ", \"end\": " << s.end << ", \"parent\": " << s.parent
        << ", \"world\": " << s.world << ", \"trial\": " << s.trial << "}";
  }
  out << "],\n \"worlds\": [";
  for (std::size_t i = 0; i < worlds.size(); ++i) {
    const WorldResult& w = worlds[i];
    out << (i ? ",\n  " : "\n  ") << "{\"ranks\": " << w.ranks
        << ", \"launch_rss_bytes\": " << w.launch_rss_bytes
        << ", \"run_rss_bytes\": " << w.run_rss_bytes << ", \"error\": ";
    write_json_string(out, w.error);
    out << "}";
  }
  out << "]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const ParsedBench parsed = parse_common_extra(
      argc, argv, 1.0,
      {{"workload", "NAME", "titan4k, titan4k_shards4, titan2k_jk_shards4 or jupiter_trials"},
       {"size", "SIZE", "full (default) or smoke: 256-rank Titan and JK, 2 Jupiter trials"},
       {"spans-out", "FILE", "write the driver's spans and per-World host numbers as JSON"}});
  const BenchOptions& opt = parsed.opt;
  const util::Cli& cli = parsed.cli;
  const std::string name = cli.get("workload", "");
  const std::string size = cli.get("size", "full");
  const std::string spans_out = cli.get("spans-out", "");
  try {
    if (size != "full" && size != "smoke") {
      throw std::invalid_argument("--size: expected full or smoke, got '" + size + "'");
    }
    const Observability obs(opt);
    SpanLog log;
    const int root = log.open("driver", -1);
    const Workload w = make_workload(name, size == "smoke", opt.seed);
    const int shards = cli.has("shards") ? opt.shards : w.shards;
    const int jobs = cli.has("jobs") ? runner::resolve_jobs(opt.jobs) : w.jobs;
    runner::TrialRunner pool(jobs);
    const int map_span = log.open("runner.map", root);
    const std::vector<WorldResult> results = pool.map(
        static_cast<int>(w.worlds.size()), opt.seed, [&](const runner::Trial& trial) {
          const int tspan = log.open("trial", map_span, -1, trial.index);
          WorldResult r = run_world(w.worlds[static_cast<std::size_t>(trial.index)], shards,
                                    trial.index, trial.index, tspan, log);
          log.close(tspan);
          return r;
        });
    log.close(map_span);

    util::Table table({"world", "algorithm", "ranks", "sync_duration_s", "max_offset_0s_us",
                       "max_offset_10s_us", "ok_ranks", "degraded_ranks", "failed_ranks",
                       "events", "status"});
    for (std::size_t i = 0; i < results.size(); ++i) {
      const WorldResult& r = results[i];
      table.add_row({std::to_string(i), r.label, std::to_string(r.ranks),
                     util::fmt(r.sync_duration, 9), util::fmt_us(r.max_offset_t0, 6),
                     util::fmt_us(r.max_offset_t1, 6), std::to_string(r.ok),
                     std::to_string(r.degraded), std::to_string(r.failed),
                     std::to_string(r.events), r.error.empty() ? "ok" : "error"});
      if (!r.error.empty()) {
        std::cerr << "world " << i << " (" << r.label << "): " << r.error << "\n";
      }
    }
    table.print_csv(std::cout);
    std::cout.flush();
    record_memory_metrics();
    log.close(root);
    if (!spans_out.empty()) write_spans(spans_out, log, results, shards, jobs);
    for (const WorldResult& r : results) {
      if (!r.error.empty()) return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << cli.program() << ": " << e.what() << "\n";
    return 2;
  }
  return 0;
}
