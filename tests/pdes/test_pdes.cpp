// Conservative-PDES engine (docs/parallel-simulation.md): window scheduler
// lookahead math, shard partitioning, cross-shard mailbox ordering, lone
// windows run on the coordinating thread, the window handoff between the
// coordinator and the shard workers, and the headline guarantee —
// bit-identical results for any shard count, clean and under fault/crash
// plans, down to the trace events and metric counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "clocksync/factory.hpp"
#include "fault/fault_plan.hpp"
#include "replay/record.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "simmpi/collectives.hpp"
#include "simmpi/comm.hpp"
#include "topology/presets.hpp"
#include "trace/metrics.hpp"
#include "trace/span.hpp"
#include "util/vec.hpp"

namespace hcs::simmpi {
namespace {

fault::FaultPlan plan_of(const std::vector<std::string>& specs) {
  fault::FaultPlan plan;
  for (const std::string& s : specs) plan.add(s);
  return plan;
}

// ------------------------------------------------------- window scheduler --

TEST(Lookahead, IsTheInterNodeBaseLatency) {
  const auto machine = topology::testbox(4, 2);
  World w(machine, 7, {}, 4);
  EXPECT_EQ(w.lookahead(), machine.net.inter_node.base_latency);
  EXPECT_GT(w.lookahead(), 0.0);
}

TEST(Lookahead, IndependentOfShardCount) {
  const auto machine = topology::testbox(4, 2);
  EXPECT_EQ(World(machine, 7, {}, 1).lookahead(), World(machine, 7, {}, 4).lookahead());
}

TEST(RunWindow, ProcessesStrictlyBelowTheBoundary) {
  sim::Simulation s;
  int fired_early = 0, fired_late = 0;
  s.spawn([](sim::Simulation& sim, int& early, int& late) -> sim::Task<void> {
    co_await sim.delay(1.0);
    ++early;
    co_await sim.delay(1.0);  // resumes at exactly t = 2.0
    ++late;
  }(s, fired_early, fired_late));
  s.run_window(2.0);  // the t == 2.0 event must stay queued
  EXPECT_EQ(fired_early, 1);
  EXPECT_EQ(fired_late, 0);
  ASSERT_FALSE(s.idle());
  EXPECT_EQ(s.next_event_time(), 2.0);
  s.run_window(3.0);
  EXPECT_EQ(fired_late, 1);
  EXPECT_TRUE(s.idle());
}

TEST(RunWindow, ParksErrorsForTakeError) {
  sim::Simulation s;
  s.spawn([](sim::Simulation& sim) -> sim::Task<void> {
    co_await sim.delay(1.0);
    throw std::runtime_error("boom");
  }(s));
  s.run_window(2.0);  // must not throw across a shard barrier
  const std::exception_ptr error = s.take_error();
  ASSERT_TRUE(error);
  EXPECT_THROW(std::rethrow_exception(error), std::runtime_error);
  EXPECT_TRUE(s.idle());                 // take_error drops queued events
  EXPECT_EQ(s.take_error(), nullptr);    // one-shot
}

TEST(RunWindow, BudgetGuardCountsLifetimeEvents) {
  sim::Simulation s;
  s.spawn([](sim::Simulation& sim) -> sim::Task<void> {
    for (int i = 0; i < 10; ++i) co_await sim.delay(1.0);
  }(s));
  s.run_window(100.0, 3);
  EXPECT_TRUE(s.take_error());  // fourth event would exceed the cap of 3
}

// ------------------------------------------------------------ partitioning --

TEST(ShardPartition, NodeAlignedContiguousAndComplete) {
  const auto machine = topology::testbox(8, 2);
  for (const int shards : {1, 2, 3, 8}) {
    World w(machine, 5, {}, shards);
    ASSERT_EQ(w.shards(), shards);
    int prev = 0;
    std::vector<bool> used(static_cast<std::size_t>(shards), false);
    for (int r = 0; r < w.size(); ++r) {
      const int s = w.shard_of_rank(r);
      ASSERT_GE(s, prev);  // contiguous node ranges
      ASSERT_LT(s, shards);
      used[static_cast<std::size_t>(s)] = true;
      prev = s;
      // Node-aligned: a co-located rank lands in the same shard.
      EXPECT_EQ(s, w.shard_of_rank(r - (r % 2)));
    }
    for (const bool u : used) EXPECT_TRUE(u);  // no empty shard
  }
}

TEST(ShardPartition, ClampsToNodeCount) {
  World w(topology::testbox(3, 2), 5, {}, 64);
  EXPECT_EQ(w.shards(), 3);
  EXPECT_EQ(World(topology::testbox(3, 2), 5, {}, -4).shards(), 1);
}

TEST(ShardPartition, RanksOnSameNodeShareTheSimulation) {
  World w(topology::testbox(4, 2), 5, {}, 4);
  EXPECT_EQ(&w.sim_of(0), &w.sim_of(1));
  EXPECT_NE(&w.sim_of(0), &w.sim_of(2));
}

// ------------------------------------------------- cross-shard transport --

// All-to-one across node boundaries with channel sequencing active (any net
// fault plan turns it on): per-channel FIFO must survive the window-boundary
// outbox merge — including dropped-and-retransmitted messages — at every
// shard count.
TEST(CrossShardMailbox, PerChannelFifoAcrossWindows) {
  for (const int shards : {1, 2, 4}) {
    World w(topology::testbox(4, 1), 11, plan_of({"drop:p=0.1"}), shards);
    const int p = w.size();
    const int dst = p - 1;
    constexpr int kMsgs = 20;
    bool fifo_ok = true;
    w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
      auto& comm = ctx.comm_world();
      if (ctx.rank() == dst) {
        for (int src = 0; src + 1 < p; ++src) {
          for (int i = 0; i < kMsgs; ++i) {
            const Message m = co_await comm.recv(src, 7);
            if (m.data[0] != static_cast<double>(i)) fifo_ok = false;
          }
        }
      } else {
        for (int i = 0; i < kMsgs; ++i) {
          co_await comm.send(dst, 7, util::vec(static_cast<double>(i)));
        }
      }
    });
    EXPECT_TRUE(fifo_ok) << "shards=" << shards;
  }
}

// Fault-free the transport promises no total FIFO (wire jitter may reorder
// same-channel messages) — but the timeline it produces must be the SAME at
// every shard count.  All-to-one maximizes merge pressure on the receiving
// NIC; the recorded post-recv timestamps observe every ingress-admission
// decision, so any shard-dependent merge would shift them.
TEST(CrossShardMailbox, MergeOrderMatchesUnshardedEngine) {
  auto arrival_times = [](int shards) {
    World w(topology::testbox(4, 1), 11, {}, shards);
    const int p = w.size();
    const int dst = p - 1;
    constexpr int kMsgs = 20;
    std::vector<double> times;
    w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
      auto& comm = ctx.comm_world();
      if (ctx.rank() == dst) {
        for (int i = 0; i < kMsgs; ++i) {
          for (int src = 0; src + 1 < p; ++src) {
            const Message m = co_await comm.recv(src, i);
            times.push_back(m.arrived_at);
            times.push_back(ctx.sim().now());
          }
        }
      } else {
        for (int i = 0; i < kMsgs; ++i) {
          co_await comm.send(dst, i, util::vec(static_cast<double>(ctx.rank() * 100 + i)));
        }
      }
    });
    return times;
  };
  const std::vector<double> base = arrival_times(1);
  for (const int shards : {2, 4}) {
    EXPECT_EQ(base, arrival_times(shards)) << "shards=" << shards;
  }
}

// Transport-level determinism fixture: a ring of cross-node exchanges whose
// per-rank completion times and payload checksums must match bit-for-bit at
// every shard count.
std::vector<double> ring_trace(int shards, const fault::FaultPlan& plan) {
  World w(topology::testbox(4, 2), 42, plan, shards);
  const int p = w.size();
  std::vector<double> out(static_cast<std::size_t>(2 * p), 0.0);
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    auto& comm = ctx.comm_world();
    const int me = ctx.rank();
    const int next = (me + 2) % p;      // always a different node (2 cores/node)
    const int prev = (me + p - 2) % p;
    for (int i = 0; i < 6; ++i) {
      co_await comm.send(next, i, util::vec(static_cast<double>(me * 100 + i)));
      const Message m = co_await comm.recv(prev, i);
      out[static_cast<std::size_t>(2 * me)] += m.data[0] + ctx.sim().now();
    }
    out[static_cast<std::size_t>(2 * me) + 1] = ctx.sim().now();
  });
  return out;
}

TEST(ShardDeterminism, RingTraceBitIdenticalCleanAndFaulted) {
  const std::vector<fault::FaultPlan> plans = {
      {},
      plan_of({"drop:p=0.1", "duplicate:p=0.05"}),
      plan_of({"crash:rank=3,at=0.0005s"}),
  };
  for (const auto& plan : plans) {
    const std::vector<double> base = ring_trace(1, plan);
    for (const int shards : {2, 4}) {
      EXPECT_EQ(base, ring_trace(shards, plan)) << "shards=" << shards;
    }
  }
}

// The run's PDES window counters: every window, and the windows that woke
// the shard workers because two or more shards had events in them.  The
// others are lone windows, run on the coordinating thread.
struct WindowCounts {
  std::uint64_t windows = 0;
  std::uint64_t parallel = 0;
};

WindowCounts window_counts(trace::MetricsRegistry& registry) {
  return {registry.counter("sim.windows").value(),
          registry.counter("sim.windows_parallel").value()};
}

constexpr const char* kHCA2 = "hca2/recompute_intercept/20/skampi_offset/5";
constexpr const char* kHCA3 = "hca3/recompute_intercept/20/skampi_offset/5";
constexpr const char* kJK = "jk/20/skampi_offset/5";

// End-to-end determinism: a full sync (ping-pong bursts, fits, collectives)
// must produce bit-identical per-rank corrections at every shard count —
// the unit-level version of the bench golden gates.  `counts`, when given,
// receives the run's window counters.  The machine has `nodes` two-core
// nodes, so up to that many shards.
std::vector<double> sync_trace(int shards, const fault::FaultPlan& plan,
                               const std::string& algo = kHCA2,
                               WindowCounts* counts = nullptr, int nodes = 4) {
  trace::MetricsRegistry registry;
  std::optional<trace::ScopedMetrics> install;
  if (counts != nullptr) install.emplace(&registry);
  std::vector<double> out;
  {
    World w(topology::testbox(nodes, 2), 9, plan, shards);
    out.assign(static_cast<std::size_t>(2 * w.size()), 0.0);
    w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
      auto sync = clocksync::make_sync(algo);
      const auto synced = co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
      const std::size_t me = static_cast<std::size_t>(ctx.rank());
      out[2 * me] = synced.clock->at_exact(0.5);
      out[2 * me + 1] = ctx.sim().now();
    });
  }  // ~World folds the shard registries into `registry`
  if (counts != nullptr) *counts = window_counts(registry);
  return out;
}

TEST(ShardDeterminism, FullSyncBitIdenticalCleanAndFaulted) {
  const std::vector<fault::FaultPlan> plans = {
      {},
      plan_of({"drop:p=0.02", "clockstep:rank=3,at=0.01s,step=50us"}),
      plan_of({"crash:rank=5,at=0.01s"}),
  };
  for (const auto& plan : plans) {
    const std::vector<double> base = sync_trace(1, plan);
    for (const int shards : {2, 4}) {
      EXPECT_EQ(base, sync_trace(shards, plan)) << "shards=" << shards;
    }
  }
}

// ------------------------------------------------------- message delivery --

// A message delivery is one callback event on the destination shard, not a
// process.  A fault-free hierarchical sync (H2HCA: HCA3 among the node
// leaders, then ClockPropagation inside each node) sends messages within and
// across nodes, yet spawns exactly one process per rank, summed over the
// shards; its corrections and its event and message counts do not depend on
// the layout.
struct DeliveryRun {
  std::vector<double> corrections;
  std::size_t spawned = 0;
  std::size_t finished = 0;
  double spawned_gauge = 0.0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t inter_node = 0;
};

DeliveryRun hierarchical_run(int shards) {
  trace::MetricsRegistry registry;
  DeliveryRun run;
  {
    const trace::ScopedMetrics install(&registry);
    World w(topology::testbox(4, 4), 5, {}, shards);
    EXPECT_EQ(w.shards(), shards);
    run.corrections.assign(static_cast<std::size_t>(2 * w.size()), 0.0);
    w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
      auto sync = clocksync::make_sync("top/hca3/20/skampi_offset/5/bottom/clockpropagation");
      const auto synced = co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
      const std::size_t me = static_cast<std::size_t>(ctx.rank());
      run.corrections[2 * me] = synced.clock->at_exact(0.5);
      run.corrections[2 * me + 1] = ctx.sim().now();
    });
    std::set<const sim::Simulation*> sims;
    for (int r = 0; r < w.size(); ++r) sims.insert(&w.sim_of(r));
    EXPECT_EQ(sims.size(), static_cast<std::size_t>(shards));
    for (const sim::Simulation* s : sims) {
      run.spawned += s->processes_spawned();
      run.finished += s->processes_finished();
    }
    run.events = w.events_processed();
  }  // ~World folds the shard registries into `registry`
  run.spawned_gauge = registry.gauge("sim.processes_spawned").value();
  run.inter_node = registry.counter("net.messages.inter_node").value();
  run.messages = run.inter_node + registry.counter("net.messages.intra_node").value() +
                 registry.counter("net.messages.intra_socket").value();
  return run;
}

TEST(MessageDelivery, HierarchicalSyncSpawnsOneProcessPerRankAtEveryShardCount) {
  const DeliveryRun one = hierarchical_run(1);
  const DeliveryRun four = hierarchical_run(4);
  for (const DeliveryRun* run : {&one, &four}) {
    EXPECT_EQ(run->spawned, 16u);
    EXPECT_EQ(run->finished, 16u);
    EXPECT_EQ(run->spawned_gauge, 16.0);
  }
  EXPECT_GT(one.inter_node, 0u);
  EXPECT_GT(one.messages, one.inter_node);
  EXPECT_EQ(one.corrections, four.corrections);
  EXPECT_EQ(one.events, four.events);
  EXPECT_EQ(one.messages, four.messages);
}

// ------------------------------------------------------ burst resume clamp --

// A cross-node burst pairs at the window boundary, and both callers resume
// no earlier than the end of the window just run.  Clean, the reference
// sends its last reply after that, so the clamp never binds.  When every
// ping is dropped, the reference serves none and is done at its own ready
// time, inside the window: the clamp delays it, and simmpi.burst_clamped
// counts that pair once, at every shard count.
std::uint64_t clamped_bursts(int shards, const fault::FaultPlan& plan) {
  trace::MetricsRegistry registry;
  const trace::ScopedMetrics install(&registry);
  {
    World w(topology::testbox(2, 1), 3, plan, shards);
    w.run_all([](RankCtx& ctx) -> sim::Task<void> {
      auto clk = ctx.base_clock();
      co_await ctx.sim().delay(1e-6);  // park inside a window, not before the first
      (void)co_await ctx.comm_world().pingpong_burst(1 - ctx.rank(), ctx.rank() == 1, *clk, 5);
    });
  }  // ~World folds the shard registries into `registry`
  return registry.counter("simmpi.burst_clamped").value();
}

TEST(BurstClamp, CountsEachDelayedPairAtEveryShardCount) {
  for (const int shards : {1, 2}) {
    EXPECT_EQ(clamped_bursts(shards, {}), 0u) << "shards=" << shards;
    EXPECT_EQ(clamped_bursts(shards, plan_of({"drop:p=1"})), 1u) << "shards=" << shards;
  }
}

// ------------------------------------------- split table vs payload path --

// A fault-free Comm::split passes (color, key) through the World's split
// table, unless a recorder is attached; then the allgather carries them.
// Both paths must build the same communicators at the same simulated times,
// at any shard count.  The trace holds, per rank and communicator, its
// validity, size, rank and world-rank map, then the rank's final time.
void describe_comm(const Comm& c, std::vector<double>& out) {
  out.push_back(c.valid() ? 1.0 : 0.0);
  if (!c.valid()) return;
  out.push_back(c.size());
  out.push_back(c.rank());
  for (int i = 0; i < c.size(); ++i) out.push_back(c.world_rank(i));
}

std::vector<double> split_trace(int shards, bool recorded) {
  replay::Recorder recorder;
  std::optional<replay::ScopedRecorder> install;
  if (recorded) install.emplace(&recorder);
  World w(topology::testbox(8, 4), 11, {}, shards);
  const auto p = static_cast<std::size_t>(w.size());
  // Colors include kUndefined; keys repeat and go negative.
  sim::Rng rng(2024);
  std::vector<int> colors(4 * p), keys(4 * p);
  for (std::size_t i = 0; i < 4 * p; ++i) {
    const int c = static_cast<int>(rng.uniform_index(4));
    colors[i] = c == 3 ? Comm::kUndefined : c;
    keys[i] = static_cast<int>(rng.uniform_index(5)) - 2;
  }
  std::vector<std::vector<double>> per_rank(p);
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    const auto me = static_cast<std::size_t>(ctx.rank());
    Comm& world = ctx.comm_world();
    const Comm first = co_await world.split(colors[me], keys[me]);
    // A recreated world communicator repeats the first split's context and
    // sequence number while slower members may still be finishing it.
    Comm fresh = Comm::world_comm(ctx.world(), ctx.rank());
    const Comm again = co_await fresh.split(colors[3 * p + me], keys[3 * p + me]);
    // A second split of the first communicator...
    const Comm second = co_await world.split(colors[p + me], keys[p + me]);
    // ...then every group of the first one splits again: sibling
    // communicators splitting at the same time, each a nested split.
    Comm nested;
    if (first.valid()) {
      Comm parent = first;
      nested = co_await parent.split(colors[2 * p + me], keys[2 * p + me]);
    }
    std::vector<double>& out = per_rank[me];
    describe_comm(first, out);
    describe_comm(second, out);
    describe_comm(nested, out);
    describe_comm(again, out);
    out.push_back(ctx.sim().now());
  });
  std::vector<double> trace;
  for (const auto& r : per_rank) trace.insert(trace.end(), r.begin(), r.end());
  return trace;
}

TEST(SplitTable, MatchesThePayloadExchangeAtEveryShardCount) {
  const std::vector<double> payload = split_trace(1, /*recorded=*/true);
  ASSERT_GT(payload.size(), 32u * 4u);  // the groups are not all empty
  for (const int shards : {1, 4}) {
    EXPECT_EQ(split_trace(shards, /*recorded=*/false), payload) << "table, shards=" << shards;
    EXPECT_EQ(split_trace(shards, /*recorded=*/true), payload) << "payload, shards=" << shards;
  }
}

// ----------------------------------------------------- engine error paths --

TEST(ShardedEngine, DeadlockStillDetected) {
  World w(topology::testbox(2, 1), 3, {}, 2);
  w.launch([](RankCtx& ctx) -> sim::Task<void> {
    if (ctx.rank() == 0) (void)co_await ctx.comm_world().recv(1, 0);  // never sent
    co_return;
  });
  try {
    w.run();
    FAIL() << "expected a deadlock error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
    EXPECT_NE(what.find("1 of 2 processes still blocked: rank 0 waits on recv(src 1, tag 0x"),
              std::string::npos)
        << what;
  }
}

TEST(ShardedEngine, DeadlockNamesAnUnpairedBurst) {
  World w(topology::testbox(4, 1), 3, {}, 2);
  w.launch([](RankCtx& ctx) -> sim::Task<void> {
    // Rank 2 calls a cross-node burst with rank 3, which never answers.
    if (ctx.rank() == 2) {
      (void)co_await ctx.comm_world().pingpong_burst(3, true, *ctx.base_clock(), 4);
    }
  });
  try {
    w.run();
    FAIL() << "expected a deadlock error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 of 4 processes still blocked: "
                        "rank 2 waits on pingpong_burst(partner 3)"),
              std::string::npos)
        << what;
  }
}

// Each shard's frames come from its Simulation's pool, which is destroyed
// after them: ~FramePool aborts the test if a frame outlives its shard.  A
// crash plan leaves the victims' guarded frames behind, a deadlock the
// blocked ranks' whole frame chains, for ~World to destroy.
TEST(ShardedEngine, CrashPlanTearsDownWithEveryFrameReturned) {
  World w(topology::testbox(4, 2), 9, plan_of({"crash:rank=5,at=0.01s"}), 4);
  w.run_all([](RankCtx& ctx) -> sim::Task<void> {
    auto sync = clocksync::make_sync(kHCA2);
    (void)co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
  });
  for (int r = 0; r < w.size(); r += 2) {
    EXPECT_GT(w.sim_of(r).frame_pool().bytes_held(), 0u) << "rank " << r;
  }
}

TEST(ShardedEngine, DeadlockTearsDownWithEveryFrameReturned) {
  World w(topology::testbox(4, 2), 3, {}, 4);
  w.launch([](RankCtx& ctx) -> sim::Task<void> {
    // hcs-lint: allow-next-line(coll-rank-branch) — rank 0 never entering is the test
    if (ctx.rank() != 0) co_await barrier(ctx.comm_world());
  });
  EXPECT_THROW(w.run(), std::runtime_error);
  for (int r = 0; r < w.size(); r += 2) {
    EXPECT_GT(w.sim_of(r).frame_pool().bytes_held(), 0u) << "rank " << r;
  }
}

TEST(ShardedEngine, EventBudgetSurfacesFromRun) {
  for (const int shards : {1, 2}) {
    World w(topology::testbox(2, 1), 3, {}, shards);
    w.launch([](RankCtx& ctx) -> sim::Task<void> {
      for (;;) co_await ctx.sim().delay(1e-9);
    });
    EXPECT_THROW(w.run(500), std::runtime_error) << "shards=" << shards;
  }
}

// Every rank has an event in the first window, so it is a parallel one, and
// the throwing rank raises its error there.  Returns the thread it threw on.
std::thread::id throw_in_parallel_window(int thrower_rank) {
  trace::MetricsRegistry registry;
  const trace::ScopedMetrics install(&registry);
  World w(topology::testbox(4, 1), 3, {}, 4);
  EXPECT_EQ(w.shard_of_rank(thrower_rank), thrower_rank);
  std::thread::id thrower;
  const World::RankFn body = [&](RankCtx& ctx) -> sim::Task<void> {
    co_await ctx.sim().delay(1e-6);
    if (ctx.rank() == thrower_rank) {
      thrower = std::this_thread::get_id();
      throw std::logic_error("rank " + std::to_string(ctx.rank()) + " exploded");
    }
    co_await ctx.sim().delay(1.0);
  };
  w.launch(body);
  try {
    w.run();
    ADD_FAILURE() << "expected the rank's error";
  } catch (const std::logic_error& e) {
    EXPECT_EQ(std::string(e.what()), "rank " + std::to_string(thrower_rank) + " exploded");
  }
  const WindowCounts counts = window_counts(registry);
  EXPECT_EQ(counts.windows, 1u);
  EXPECT_EQ(counts.parallel, 1u);
  return thrower;
}

TEST(ShardedEngine, RankErrorPropagatesFromWorkerShard) {
  EXPECT_NE(throw_in_parallel_window(3), std::this_thread::get_id());
}

// ------------------------------------------------------------ lone windows --

// A window in which only one shard has events runs on the coordinating
// thread; the workers wake only for windows with two or more.

TEST(LoneWindows, WindowCountIsShardInvariant) {
  for (const char* algo : {kJK, kHCA3}) {
    WindowCounts base;
    (void)sync_trace(1, {}, algo, &base);
    EXPECT_GT(base.windows, 0u) << algo;
    EXPECT_EQ(base.parallel, 0u) << algo;  // one shard: every window is lone
    for (const int shards : {2, 4}) {
      WindowCounts sharded;
      (void)sync_trace(shards, {}, algo, &sharded);
      EXPECT_EQ(sharded.windows, base.windows) << algo << " shards=" << shards;
    }
  }
}

// JK syncs one client at a time, so at most the first window has events in
// more than one shard, and the workers never wake after it.
TEST(LoneWindows, JKRunsOnTheCoordinatorBitIdentical) {
  WindowCounts counts;
  EXPECT_EQ(sync_trace(4, {}, kJK, &counts), sync_trace(1, {}, kJK));
  EXPECT_LE(counts.parallel, 1u);
  EXPECT_GT(counts.windows, 10 * counts.parallel);
}

// HCA3 pairs many clients at once, then narrows to a few: its run mixes
// both window kinds, so a shard's state passes between the coordinator and
// its worker thread (the TSan job runs this).
TEST(LoneWindows, HCA3MixesLoneAndParallelWindowsBitIdentical) {
  WindowCounts counts;
  EXPECT_EQ(sync_trace(4, {}, kHCA3, &counts), sync_trace(1, {}, kHCA3));
  EXPECT_GT(counts.parallel, 0u);
  EXPECT_LT(counts.parallel, counts.windows);
}

// The lone-window counterparts of the ShardedEngine error tests.  Every
// rank has an event in the first window, which wakes the workers; after it
// only one shard has events, so the error is raised on the thread that
// called run() and must still surface from it unchanged.
TEST(LoneWindows, RankErrorPropagatesFromTheCoordinator) {
  trace::MetricsRegistry registry;
  const trace::ScopedMetrics install(&registry);
  World w(topology::testbox(4, 1), 3, {}, 4);
  std::thread::id thrower;
  // Named, so the captures outlive launch(): the rank coroutines read them
  // through the closure during run().
  const World::RankFn body = [&](RankCtx& ctx) -> sim::Task<void> {
    co_await ctx.sim().delay(1e-6);
    if (ctx.rank() != 3) co_return;
    co_await ctx.sim().delay(1.0);
    thrower = std::this_thread::get_id();
    throw std::logic_error("rank 3 exploded");
  };
  w.launch(body);
  try {
    w.run();
    FAIL() << "expected the rank's error";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "rank 3 exploded");
  }
  EXPECT_EQ(thrower, std::this_thread::get_id());
  const WindowCounts counts = window_counts(registry);
  EXPECT_EQ(counts.windows, 2u);
  EXPECT_EQ(counts.parallel, 1u);  // the first window only
}

TEST(LoneWindows, EventBudgetSurfacesFromTheCoordinator) {
  trace::MetricsRegistry registry;
  const trace::ScopedMetrics install(&registry);
  World w(topology::testbox(4, 1), 3, {}, 4);
  w.launch([](RankCtx& ctx) -> sim::Task<void> {
    co_await ctx.sim().delay(1e-6);
    if (ctx.rank() != 2) co_return;
    co_await ctx.sim().delay(1.0);
    for (;;) co_await ctx.sim().delay(1e-12);  // overruns within one window
  });
  try {
    w.run(500);
    FAIL() << "expected the event budget error";
  } catch (const std::runtime_error& e) {
    // Shard 2's cap: its own event in the first window plus the 496 left
    // after it.
    EXPECT_STREQ(e.what(), "Simulation::run: event budget exceeded (497 events)");
  }
  EXPECT_EQ(window_counts(registry).parallel, 1u);
}

// ---------------------------------------------------------- window handoff --

// A parallel window runs shard 0 on the thread that called run() and shards
// 1..K-1 on K-1 workers, handed each window through sim::WindowGate.

// K=3: shard 0 plus two workers.  K=8: more shards than a 4-core host has
// hardware threads, so the workers park without spinning.
TEST(WindowHandoff, HCA3BitIdenticalAtThreeAndEightShards) {
  const std::vector<double> base = sync_trace(1, {}, kHCA3, nullptr, 8);
  for (const int shards : {3, 8}) {
    WindowCounts counts;
    EXPECT_EQ(sync_trace(shards, {}, kHCA3, &counts, 8), base) << "shards=" << shards;
    EXPECT_GT(counts.parallel, 0u) << "shards=" << shards;
  }
}

TEST(WindowHandoff, RankErrorFromShardZeroIsThrownOnTheCallersThread) {
  EXPECT_EQ(throw_in_parallel_window(0), std::this_thread::get_id());
}

// At --shards 4 rank code runs on the caller's thread (launch, shard 0,
// lone windows) and on three workers: never more threads than shards.
TEST(WindowHandoff, RankCodeRunsOnAtMostOneThreadPerShard) {
  trace::MetricsRegistry registry;
  const trace::ScopedMetrics install(&registry);
  std::mutex mu;
  std::set<std::thread::id> threads;
  const auto note = [&] {
    const std::lock_guard<std::mutex> lock(mu);
    threads.insert(std::this_thread::get_id());
  };
  {
    World w(topology::testbox(8, 2), 5, {}, 4);
    const int p = w.size();
    w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
      auto& comm = ctx.comm_world();
      const int me = ctx.rank();
      note();
      for (int i = 0; i < 4; ++i) {
        co_await comm.send((me + 2) % p, i, util::vec(static_cast<double>(me)));
        (void)co_await comm.recv((me + p - 2) % p, i);
        note();
      }
    });
  }
  EXPECT_GT(window_counts(registry).parallel, 0u);
  EXPECT_LE(threads.size(), 4u);
  EXPECT_EQ(threads.count(std::this_thread::get_id()), 1u);
}

// -------------------------------------------------- per-shard observability --

// Every rank opens a span while launch() spawns it, before its first
// suspension, and closes it after a rank-specific delay on the thread that
// runs its shard.  Ranks of different shards wake in the same windows, so
// the workers record concurrently.  Both ends must read the rank's own
// shard clock: the events then equal the 1-shard run's at every shard count.
using SpanKey = std::tuple<int, std::string, double, double>;

std::multiset<SpanKey> launch_spans(int shards) {
  trace::Tracer tracer;
  {
    const trace::ScopedTracer install(&tracer);
    World w(topology::testbox(4, 2), 11, {}, shards);
    const double step = 3.0 * w.lookahead();
    w.run_all([step](RankCtx& ctx) -> sim::Task<void> {
      HCS_TRACE_SCOPE(App, ctx.rank(), "launch_span");
      co_await ctx.sim().delay(step * (1 + ctx.rank() % 3) + 1e-9 * ctx.rank());
    });
  }  // ~World absorbs the shard tracers into `tracer`
  std::multiset<SpanKey> out;
  for (const trace::TraceEvent& e : tracer.merged_events()) {
    out.emplace(e.rank, e.name, e.ts, e.dur);
  }
  return out;
}

TEST(ShardObservability, SpansOpenedAtLaunchReadTheRanksShardClock) {
  const std::multiset<SpanKey> base = launch_spans(1);
  ASSERT_EQ(base.size(), 8u);
  for (const int shards : {2, 4}) {
    EXPECT_EQ(launch_spans(shards), base) << "shards=" << shards;
  }
}

// One HCA3 sync under a composed plan: every fault kind that counts into a
// registry, and a crash mid-sync, reported into `registry`.
void composed_plan_metrics(int shards, trace::MetricsRegistry& registry) {
  const fault::FaultPlan plan =
      plan_of({"drop:p=0.1", "duplicate:p=0.05", "reorder:p=0.1,delay=20us",
               "pause:rank=0,at=300us,duration=300us", "crash:rank=6,at=1500us"});
  {
    const trace::ScopedMetrics install(&registry);
    World w(topology::testbox(4, 2), 13, plan, shards);
    w.run_all([](RankCtx& ctx) -> sim::Task<void> {
      auto sync = clocksync::make_sync(kHCA3);
      (void)co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
    });
  }  // ~World merges the shard registries into `registry`
}

// Counters and histogram count/min/max do not depend on which shard
// registry recorded them; sim.windows_parallel does by definition.
TEST(ShardObservability, MetricsEqualAtEveryShardCountUnderAComposedPlan) {
  trace::MetricsRegistry base;
  composed_plan_metrics(1, base);
  for (const char* name :
       {"fault.net.drops", "fault.net.duplicates", "fault.net.delayed", "fault.net.retransmits",
        "fault.pause.holds", "fault.crash.drops", "net.messages.inter_node", "sync.pingpongs",
        "sync.exchanges_lost"}) {
    ASSERT_TRUE(base.counters().count(name) && base.counters().at(name).value() > 0)
        << name << " never fired; the comparison would be vacuous";
  }
  for (const char* name : {"sync.rtt", "sync.burst_retries", "fault.net.extra_delay"}) {
    ASSERT_TRUE(base.histograms().count(name) && base.histograms().at(name).count() > 0) << name;
  }
  for (const int shards : {2, 4}) {
    trace::MetricsRegistry sharded;
    composed_plan_metrics(shards, sharded);
    std::map<std::string, std::uint64_t> expected, actual;
    for (const auto& [name, c] : base.counters()) expected[name] = c.value();
    for (const auto& [name, c] : sharded.counters()) actual[name] = c.value();
    expected.erase("sim.windows_parallel");
    actual.erase("sim.windows_parallel");
    EXPECT_EQ(actual, expected) << "shards=" << shards;
    ASSERT_EQ(sharded.histograms().size(), base.histograms().size()) << "shards=" << shards;
    for (const auto& [name, h] : base.histograms()) {
      const trace::HistogramMetric& other = sharded.histograms().at(name);
      EXPECT_EQ(other.count(), h.count()) << name << " shards=" << shards;
      EXPECT_EQ(other.min(), h.min()) << name << " shards=" << shards;
      EXPECT_EQ(other.max(), h.max()) << name << " shards=" << shards;
    }
  }
}

// The sinks installed when the World is built are the World's: every shard
// reports into them (or into per-shard registries merged into them), so
// rank code and the network report there even when another registry is
// installed around run().  Only run()'s own end-of-run counters follow the
// caller's registry.
TEST(ShardObservability, RankAndNetworkMetricsGoToTheRegistryInstalledAtConstruction) {
  for (const int shards : {1, 2}) {
    trace::MetricsRegistry at_construction, around_run;
    {
      std::optional<World> w;
      {
        const trace::ScopedMetrics install(&at_construction);
        w.emplace(topology::testbox(4, 2), 3, fault::FaultPlan{}, shards);
      }
      const trace::ScopedMetrics install(&around_run);
      const int p = w->size();
      w->run_all([p](RankCtx& ctx) -> sim::Task<void> {
        HCS_METRIC_INC("test.rank_code");
        auto& comm = ctx.comm_world();
        co_await comm.send((ctx.rank() + 2) % p, 0, util::vec(1.0));
        (void)co_await comm.recv((ctx.rank() + p - 2) % p, 0);
        HCS_METRIC_INC("test.rank_code");
      });
    }
    EXPECT_EQ(at_construction.counter("test.rank_code").value(), 16u) << "shards=" << shards;
    EXPECT_EQ(at_construction.counter("net.messages.inter_node").value(), 8u)
        << "shards=" << shards;
    for (const auto& [name, c] : around_run.counters()) {
      EXPECT_NE(name, "test.rank_code") << "shards=" << shards;
      EXPECT_NE(name.rfind("net.", 0), 0u) << name << " shards=" << shards;
    }
    EXPECT_GT(around_run.counter("sim.windows").value(), 0u) << "shards=" << shards;
  }
}

}  // namespace
}  // namespace hcs::simmpi
