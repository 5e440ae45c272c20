// Observability showcase: run a bulk-synchronous mini-application under full
// instrumentation — structured tracer + metrics registry — once with raw
// per-core clocks and once with an HCA3 global clock.
//
//   $ ./examples/trace_app [--nodes N] [--cores C] [--iterations I]
//                          [--trace-out run.json] [--metrics-out run.csv]
//
// --trace-out writes a Chrome trace of the HCA3 run (load it in
// chrome://tracing or https://ui.perfetto.dev): one row per rank showing the
// sync phases (hca3.sync_clocks, learn_clock_model, pingpong_burst) followed
// by the app's compute/allreduce iterations.  The metrics summary shows
// where the messages went (per topology level) and the RTT distribution the
// sync algorithm saw — the paper's "where did the RTT budget go" question.
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>

#include "clocksync/factory.hpp"
#include "simmpi/collectives.hpp"
#include "simmpi/world.hpp"
#include "topology/presets.hpp"
#include "trace/chrome_export.hpp"
#include "trace/metrics.hpp"
#include "trace/span.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "util/histogram.hpp"
#include "util/table.hpp"
#include "util/vec.hpp"

namespace {

using namespace hcs;

std::vector<trace::GanttRow> run_app(const topology::MachineConfig& machine, bool global_clock,
                                     int iterations, std::uint64_t seed) {
  simmpi::World world(machine, seed);
  // One slot per rank: rank programs run on shard worker threads, and
  // gantt_rows wants the tracers in rank order.
  std::vector<std::optional<trace::IntervalTracer>> slots(static_cast<std::size_t>(world.size()));
  world.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    vclock::ClockPtr clk = ctx.base_clock();
    if (global_clock) {
      // NOTE: this machine has per-core time sources, so ClockPropSync would
      // be invalid here (paper §IV-C applicability condition) — use flat
      // HCA3, which only assumes message passing.
      auto sync = clocksync::make_sync("hca3/recompute_intercept/200/skampi_offset/20");
      const clocksync::SyncResult synced =
          co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
      if (!synced.report.clean()) {
        throw std::runtime_error("trace_app: sync reported degraded health");
      }
      clk = synced.clock;
    }
    trace::IntervalTracer& tracer =
        slots[static_cast<std::size_t>(ctx.rank())].emplace(ctx.rank(), clk);
    for (int it = 0; it < iterations; ++it) {
      {
        HCS_TRACE_SCOPE(App, ctx.rank(), "compute", it);
        const std::size_t c = tracer.begin_event("compute", it);
        co_await ctx.sim().delay(30e-6 + 1e-6 * (ctx.rank() % 8));  // imbalanced work
        tracer.end_event(c);
      }
      {
        HCS_TRACE_SCOPE(App, ctx.rank(), "allreduce_iter", it);
        const std::size_t a = tracer.begin_event("allreduce", it);
        (void)co_await simmpi::allreduce(ctx.comm_world(), util::vec(1.0), simmpi::ReduceOp::kSum,
                                         simmpi::AllreduceAlgo::kRecursiveDoubling, 8);
        tracer.end_event(a);
      }
    }
  });
  std::vector<trace::IntervalTracer> tracers;
  for (std::optional<trace::IntervalTracer>& slot : slots) tracers.push_back(std::move(*slot));
  return trace::gantt_rows(tracers, "allreduce", iterations / 2);
}

void print_gantt(const std::vector<trace::GanttRow>& rows, const std::string& title) {
  std::cout << title << "\n";
  util::Table table({"rank", "start_us", "duration_us"});
  for (const auto& row : rows) {
    table.add_row({std::to_string(row.rank), util::fmt_us(row.start, 2),
                   util::fmt_us(row.duration, 2)});
  }
  table.print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const int nodes = static_cast<int>(cli.get_int("nodes", 4));
  const int cores = static_cast<int>(cli.get_int("cores", 4));
  const int iterations = static_cast<int>(cli.get_int("iterations", 10));
  const std::string trace_path = cli.trace_out();
  const std::string metrics_path = cli.metrics_out();

  // Per-core timers with NTP-like offsets: the gettimeofday situation.
  auto machine = topology::testbox(nodes, cores)
                     .with_time_source(topology::TimeSourceScope::kPerCore);
  machine.clocks.initial_offset_abs = 200e-6;
  std::cout << "machine: " << machine.describe() << "\n\n";

  // Pass 1 — local clocks, uninstrumented: the baseline Gantt.
  print_gantt(run_app(machine, false, iterations, cli.seed(7)), "--- local clocks ---");

  // Pass 2 — HCA3 global clock under the structured tracer + metrics.  Both
  // must be installed before the World is built: a World reports into the
  // sinks installed at its construction.
  trace::Tracer structured;
  trace::MetricsRegistry metrics;
  {
    const trace::ScopedTracer install_tracer(&structured);
    const trace::ScopedMetrics install_metrics(&metrics);
    print_gantt(run_app(machine, true, iterations, cli.seed(7)),
                "--- global clock (HCA3) ---");
  }
  std::cout << "With local clocks the start column scatters over the clock offsets; with the\n"
               "global clock it shows the true arrival pattern into the Allreduce.\n";

  std::cout << "\n--- metrics summary: HCA3 run (histograms in us) ---\n";
  trace::print_metrics_summary(std::cout, metrics);
  const trace::HistogramMetric& rtt = metrics.histogram("sync.rtt");
  if (rtt.count() > 0) {
    std::cout << "\nsync ping-pong RTT distribution (" << rtt.count() << " exchanges):\n";
    util::print_histogram(std::cout, util::make_histogram(rtt.samples(), 12), 40, 1e6, "us");
  }

  if (!trace_path.empty()) {
    if (!trace::write_chrome_trace_file(trace_path, structured)) {
      std::cerr << "failed to write trace: " << trace_path << "\n";
      return 1;
    }
    std::cout << "\nwrote Chrome trace (" << structured.recorded() - structured.dropped()
              << " events, " << structured.dropped()
              << " dropped; chrome://tracing / ui.perfetto.dev): " << trace_path << "\n";
  }
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out) {
      std::cerr << "failed to write metrics: " << metrics_path << "\n";
      return 1;
    }
    trace::write_metrics_csv(out, metrics);
    std::cout << "wrote metrics CSV: " << metrics_path << "\n";
  }
  return 0;
}
