// Fig. 2 — clock drift of nine MPI ranks relative to a reference process.
//
// (a) offsets over 500 s (one rank per node, Hydra),
// (b) fitted linear models over the full 500 s (poor fit: drift not linear),
// (c) the first 10 s (good fit: R^2 > 0.9).
// Also prints the §III-C2 linearity-horizon sweep: R^2 of a linear fit as a
// function of the window length.
#include <cmath>
#include <iostream>

#include "clocksync/fitting.hpp"
#include "clocksync/skampi_offset.hpp"
#include "common.hpp"
#include "simmpi/world.hpp"

namespace hcs::bench {
namespace {

struct DriftSeries {
  std::vector<double> times;                 // seconds since first sample
  std::vector<std::vector<double>> offsets;  // [rank-1][sample], us relative to first
};

DriftSeries measure_drift(const topology::MachineConfig& machine, double horizon,
                          double interval, std::uint64_t seed, int shards) {
  simmpi::World world(machine, seed, {}, shards);
  const int p = world.size();
  DriftSeries series;
  series.offsets.resize(static_cast<std::size_t>(p - 1));
  world.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    clocksync::SKaMPIOffset oalg(20);
    const int nsamples = static_cast<int>(horizon / interval);
    for (int s = 0; s < nsamples; ++s) {
      if (ctx.rank() == 0) {
        for (int client = 1; client < p; ++client) {
          (void)co_await oalg.measure_offset(ctx.comm_world(), *clk, 0, client);
        }
        series.times.push_back(ctx.sim().now());
      } else {
        const clocksync::ClockOffset o =
            co_await oalg.measure_offset(ctx.comm_world(), *clk, 0, ctx.rank());
        series.offsets[static_cast<std::size_t>(ctx.rank() - 1)].push_back(o.offset);
      }
      co_await ctx.sim().delay(interval);
    }
  });
  // Normalize: paper plots offsets relative to the initial offset.
  const double t0 = series.times.front();
  for (double& t : series.times) t -= t0;
  for (auto& per_rank : series.offsets) {
    const double first = per_rank.front();
    for (double& o : per_rank) o -= first;
  }
  return series;
}

void print_series(const DriftSeries& series, const std::string& title, int max_rows) {
  std::cout << "--- " << title << " ---\n";
  util::Table table([&] {
    std::vector<std::string> headers = {"time_s"};
    for (std::size_t r = 0; r < series.offsets.size(); ++r) {
      headers.push_back("rank" + std::to_string(r + 1) + "_us");
    }
    return headers;
  }());
  const std::size_t stride = std::max<std::size_t>(1, series.times.size() / static_cast<std::size_t>(max_rows));
  for (std::size_t s = 0; s < series.times.size(); s += stride) {
    std::vector<std::string> row = {util::fmt(series.times[s], 1)};
    for (const auto& per_rank : series.offsets) row.push_back(util::fmt_us(per_rank[s], 2));
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\n";
}

void print_fits(const DriftSeries& series, const std::string& title) {
  std::cout << "--- " << title << " ---\n";
  util::Table table({"rank", "slope_ppm", "intercept_us", "R2"});
  for (std::size_t r = 0; r < series.offsets.size(); ++r) {
    const auto fit = clocksync::fit_linear_model(series.times, series.offsets[r]);
    table.add_row({std::to_string(r + 1), util::fmt(fit.model.slope * 1e6, 4),
                   util::fmt_us(fit.model.intercept, 3), util::fmt(fit.r2, 4)});
  }
  table.print(std::cout);
  std::cout << "\n";
}

DriftSeries truncate(const DriftSeries& in, double horizon) {
  DriftSeries out;
  out.offsets.resize(in.offsets.size());
  for (std::size_t s = 0; s < in.times.size(); ++s) {
    if (in.times[s] > horizon) break;
    out.times.push_back(in.times[s]);
    for (std::size_t r = 0; r < in.offsets.size(); ++r) {
      out.offsets[r].push_back(in.offsets[r][s]);
    }
  }
  return out;
}

}  // namespace
}  // namespace hcs::bench

int main(int argc, char** argv) {
  using namespace hcs;
  using namespace hcs::bench;
  const BenchOptions opt = parse_common(argc, argv, 1.0);
  const Observability obs(opt);

  // "we only use one rank per compute node ... of Hydra": 10 nodes x 1 rank.
  auto machine = topology::hydra().with_nodes(10);
  machine.topo = topology::ClusterTopology(10, 1, 1, topology::TimeSourceScope::kPerNode);
  const double horizon = 500.0 * opt.scale;
  print_header("Fig. 2", "clock drift vs. reference process over " +
                             util::fmt(horizon, 0) + " s, 10 x 1 ranks, Hydra",
               machine, opt);

  const double interval = std::max(0.25, horizon / 400.0);
  const DriftSeries full = measure_drift(machine, horizon, interval, opt.seed, opt.shards);
  print_series(full, "Fig. 2a: offset to reference [us] over " + util::fmt(horizon, 0) + " s",
               20);
  print_fits(full, "Fig. 2b: linear fits over the full horizon (expect mediocre R2)");

  const double zoom_horizon = std::max(std::min(10.0, horizon), 3.0 * interval);
  const DriftSeries zoom = truncate(full, zoom_horizon);
  print_fits(zoom, "Fig. 2c: linear fits over the first 10 s (expect R2 > 0.9)");

  // §III-C2: linearity horizon sweep.
  std::cout << "--- Linearity horizon (median across ranks; paper: linear models good for\n"
               "    ~0-20 s, accuracy goes down significantly after one minute) ---\n";
  util::Table sweep({"window_s", "median_R2", "median_extrapolation_err_us"});
  const DriftSeries fit_window = truncate(full, std::max(std::min(10.0, horizon), 3.0 * interval));
  for (double window : {5.0, 10.0, 20.0, 60.0, 120.0, 300.0, 500.0}) {
    if (window > horizon) break;
    const DriftSeries win = truncate(full, window);
    if (win.times.size() < 3 || fit_window.times.size() < 3) continue;
    std::vector<double> r2s, errs;
    for (std::size_t r = 0; r < win.offsets.size(); ++r) {
      r2s.push_back(hcs::clocksync::fit_linear_model(win.times, win.offsets[r]).r2);
      // Fit on the first 10 s, predict the offset at the window's end: the
      // error a benchmarking tool would accumulate without re-syncing.
      const auto fit =
          hcs::clocksync::fit_linear_model(fit_window.times, fit_window.offsets[r]);
      const double predicted = fit.model.slope * win.times.back() + fit.model.intercept;
      errs.push_back(std::abs(predicted - win.offsets[r].back()));
    }
    sweep.add_row({util::fmt(window, 0), util::fmt(util::median(r2s), 4),
                   util::fmt_us(util::median(errs), 2)});
  }
  sweep.print(std::cout);
  return 0;
}
