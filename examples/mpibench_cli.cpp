// mpibench_cli — a ReproMPI-style command-line benchmark runner on top of the
// simulated cluster; the "product" the paper's methodology ships.
//
//   $ ./examples/mpibench_cli --machine jupiter --nodes 8
//       --op allreduce --op-algo rec_doubling
//       --msizes 4,16,64,256,1024 --scheme roundtime
//       --sync "hca3/recompute_intercept/300/skampi_offset/30"
//       --nrep 100 --summary median --csv
//   (one command; wrapped here for readability)
//
// Options:
//   --machine jupiter|hydra|titan|testbox   (default testbox)
//   --nodes N --cores C                     (machine shape override)
//   --op allreduce|bcast|barrier|alltoall|reduce|scan
//   --op-algo <algorithm name>              (per-op; see --help-algos)
//   --msizes a,b,c                          (bytes; ignored for barrier)
//   --scheme roundtime|barrier|window
//   --barrier tree|bruck|double_ring|rec_doubling|linear   (scheme=barrier)
//   --window-us W                           (scheme=window)
//   --sync LABEL                            (clock sync config string)
//   --nrep N --seed S --summary mean|median --csv
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "clocksync/factory.hpp"
#include "mpibench/suites.hpp"
#include "mpibench/window_scheme.hpp"
#include "simmpi/world.hpp"
#include "topology/presets.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/vec.hpp"

namespace {

using namespace hcs;

std::vector<std::int64_t> parse_msizes(const std::string& csv) {
  std::vector<std::int64_t> out;
  std::stringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(std::stoll(tok));
  }
  if (out.empty()) throw std::invalid_argument("--msizes: empty list");
  return out;
}

topology::MachineConfig parse_machine(const util::Cli& cli) {
  const std::string name = cli.get("machine", "testbox");
  const int nodes = static_cast<int>(cli.get_int("nodes", 0));
  const int cores = static_cast<int>(cli.get_int("cores", 0));
  topology::MachineConfig m = [&] {
    if (name == "jupiter") return topology::jupiter();
    if (name == "hydra") return topology::hydra();
    if (name == "titan") return topology::titan();
    if (name == "testbox") return topology::testbox(nodes > 0 ? nodes : 4, cores > 0 ? cores : 4);
    throw std::invalid_argument("unknown --machine '" + name + "'");
  }();
  if (nodes > 0 && name != "testbox") m = m.with_nodes(nodes);
  return m;
}

simmpi::BarrierAlgo parse_barrier(const std::string& name) {
  if (name == "tree") return simmpi::BarrierAlgo::kTree;
  if (name == "bruck") return simmpi::BarrierAlgo::kBruck;
  if (name == "double_ring") return simmpi::BarrierAlgo::kDoubleRing;
  if (name == "rec_doubling") return simmpi::BarrierAlgo::kRecursiveDoubling;
  if (name == "linear") return simmpi::BarrierAlgo::kLinear;
  throw std::invalid_argument("unknown --barrier '" + name + "'");
}

mpibench::CollectiveOp parse_op(const std::string& op, const std::string& algo,
                                std::int64_t msize) {
  if (op == "allreduce") {
    simmpi::AllreduceAlgo a = simmpi::AllreduceAlgo::kRecursiveDoubling;
    if (algo == "ring") a = simmpi::AllreduceAlgo::kRing;
    else if (algo == "reduce_bcast") a = simmpi::AllreduceAlgo::kReduceBcast;
    else if (algo == "rabenseifner") a = simmpi::AllreduceAlgo::kRabenseifner;
    else if (!algo.empty() && algo != "rec_doubling") {
      throw std::invalid_argument("unknown allreduce algorithm '" + algo + "'");
    }
    return mpibench::make_allreduce_op(msize, a);
  }
  if (op == "bcast") {
    simmpi::BcastAlgo a = simmpi::BcastAlgo::kBinomial;
    if (algo == "linear") a = simmpi::BcastAlgo::kLinear;
    else if (algo == "chain") a = simmpi::BcastAlgo::kChain;
    else if (algo == "scatter_allgather") a = simmpi::BcastAlgo::kScatterAllgather;
    else if (!algo.empty() && algo != "binomial") {
      throw std::invalid_argument("unknown bcast algorithm '" + algo + "'");
    }
    return [msize, a](simmpi::Comm& comm) -> sim::Task<void> {
      (void)co_await simmpi::bcast(comm, util::vec(1.0), 0, a, msize);
    };
  }
  if (op == "barrier") return mpibench::make_barrier_op(parse_barrier(algo.empty() ? "tree" : algo));
  if (op == "alltoall") {
    return [msize](simmpi::Comm& comm) -> sim::Task<void> {
      std::vector<double> buf(static_cast<std::size_t>(comm.size()), 1.0);
      (void)co_await simmpi::alltoall(comm, std::move(buf), 1, simmpi::AlltoallAlgo::kPairwise,
                                      msize);
    };
  }
  if (op == "reduce") {
    return [msize](simmpi::Comm& comm) -> sim::Task<void> {
      (void)co_await simmpi::reduce(comm, util::vec(1.0), simmpi::ReduceOp::kSum, 0,
                                    simmpi::ReduceAlgo::kBinomial, msize);
    };
  }
  if (op == "scan") {
    return [msize](simmpi::Comm& comm) -> sim::Task<void> {
      (void)co_await simmpi::scan(comm, util::vec(1.0), simmpi::ReduceOp::kSum,
                                  simmpi::ScanAlgo::kRecursiveDoubling, msize);
    };
  }
  throw std::invalid_argument("unknown --op '" + op + "'");
}

struct Row {
  std::int64_t msize;
  util::Summary summary;
  int valid, invalid;
};

Row run_one(const topology::MachineConfig& machine, const util::Cli& cli, std::int64_t msize) {
  const std::string scheme = cli.get("scheme", "roundtime");
  const mpibench::CollectiveOp op =
      parse_op(cli.get("op", "allreduce"), cli.get("op-algo", ""), msize);
  const int nrep = static_cast<int>(cli.get_int("nrep", 100));
  const std::string sync_label =
      cli.get("sync", "hca3/recompute_intercept/300/skampi_offset/30");

  simmpi::World world(machine, cli.seed(1));
  Row row{msize, {}, 0, 0};
  world.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    mpibench::MeasurementResult m;
    if (scheme == "barrier") {
      m = co_await mpibench::run_barrier_scheme(
          ctx.comm_world(), *clk, op,
          mpibench::BarrierSchemeParams{nrep, parse_barrier(cli.get("barrier", "tree"))});
      // Without a global clock the per-rep "runtime" is the across-rank max.
      if (ctx.rank() == 0) {
        for (const auto& ranks : m.latencies) m.global_runtimes.push_back(util::max(ranks));
      }
    } else {
      auto sync = clocksync::make_sync(sync_label);
      const clocksync::SyncResult g = co_await sync->sync_clocks(ctx.comm_world(), clk);
      if (!g.report.clean()) {
        throw std::runtime_error("mpibench_cli: sync reported degraded health");
      }
      if (scheme == "window") {
        mpibench::WindowSchemeParams params;
        params.nrep = nrep;
        params.window = cli.get_double("window-us", 200.0) * 1e-6;
        m = co_await mpibench::run_window_scheme(ctx.comm_world(), *g.clock, op, params);
      } else if (scheme == "roundtime") {
        mpibench::RoundTimeParams params;
        params.max_nrep = nrep;
        params.max_time_slice = cli.get_double("time-slice", 5.0);
        m = co_await mpibench::run_roundtime_scheme(ctx.comm_world(), *g.clock, op, params);
      } else {
        throw std::invalid_argument("unknown --scheme '" + scheme + "'");
      }
    }
    if (ctx.rank() == 0) {
      row.summary = util::summarize(m.global_runtimes);
      row.valid = m.valid_reps();
      row.invalid = m.invalid_reps;
    }
  });
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"csv"});
  try {
    const topology::MachineConfig machine = parse_machine(cli);
    const auto msizes = cli.get("op", "allreduce") == "barrier"
                            ? std::vector<std::int64_t>{8}
                            : parse_msizes(cli.get("msizes", "4,16,64,256,1024"));
    std::cout << "# machine: " << machine.describe() << "\n"
              << "# op: " << cli.get("op", "allreduce") << " scheme: "
              << cli.get("scheme", "roundtime") << " nrep: " << cli.get_int("nrep", 100)
              << "\n\n";
    util::Table table({"msize_B", "valid", "invalid", "min_us", "q25_us", "median_us", "q75_us",
                       "max_us", "mean_us"});
    for (const std::int64_t msize : msizes) {
      const Row row = run_one(machine, cli, msize);
      table.add_row({std::to_string(row.msize), std::to_string(row.valid),
                     std::to_string(row.invalid), util::fmt_us(row.summary.min, 2),
                     util::fmt_us(row.summary.q25, 2), util::fmt_us(row.summary.median, 2),
                     util::fmt_us(row.summary.q75, 2), util::fmt_us(row.summary.max, 2),
                     util::fmt_us(row.summary.mean, 2)});
    }
    if (cli.has("csv")) table.print_csv(std::cout);
    else table.print(std::cout);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
