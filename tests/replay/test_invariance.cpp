// Recorder invariance: the property that makes a recording a trustworthy
// divergence oracle.  Recording the same scenario must produce byte-identical
// files across --shards 1/2/8 and --jobs 1/4 — on a
// ring World and a hierarchical Titan slice, clean and under a crash plan.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "replay/format.hpp"
#include "replay/harness.hpp"
#include "replay/record.hpp"
#include "replay/scenario.hpp"
#include "runner/trial_runner.hpp"
#include "trace/metrics.hpp"

namespace hcs::replay {
namespace {

std::string record_bytes(const Scenario& scenario, std::uint64_t seed, int shards) {
  Recorder recorder;
  {
    const ScopedRecorder install(&recorder);
    run_scenario(scenario, seed, shards);
  }
  return serialize(recorder);
}

void expect_invariant(const Scenario& scenario, std::uint64_t seed,
                      const std::vector<int>& shard_counts) {
  const std::string reference = record_bytes(scenario, seed, 1);
  ASSERT_FALSE(reference.empty());
  for (const int shards : shard_counts) {
    EXPECT_TRUE(record_bytes(scenario, seed, shards) == reference)
        << scenario.name << " seed " << seed << " shards " << shards;
  }
}

void expect_invariant(const std::string& scenario, std::uint64_t seed,
                      const std::vector<int>& shard_counts) {
  expect_invariant(find_scenario(scenario), seed, shard_counts);
}

// The invariance tests below would pass vacuously if run_scenario ignored its
// shard count: a sharded run must actually run parallel windows.
TEST(RecorderInvariance, ShardCountReachesTheScenarioWorld) {
  for (const int shards : {1, 2}) {
    trace::MetricsRegistry registry;
    {
      const trace::ScopedMetrics install(&registry);
      run_scenario(find_scenario("ring8"), 3, shards);
    }
    const std::uint64_t parallel = registry.counter("sim.windows_parallel").value();
    if (shards == 1) {
      EXPECT_EQ(parallel, 0u);
    } else {
      EXPECT_GT(parallel, 0u) << "shards=" << shards;
    }
  }
}

TEST(RecorderInvariance, Ring8CleanAcrossShards) {
  expect_invariant("ring8", 3, {2, 8});
}

TEST(RecorderInvariance, Ring8CrashAcrossShards) {
  expect_invariant("ring8-crash", 3, {2, 8});
}

TEST(RecorderInvariance, TitanSmallCleanAcrossShards) {
  expect_invariant("titan-small", 5, {2});
}

TEST(RecorderInvariance, TitanSmallCrashAcrossShards) {
  expect_invariant("titan-small-crash", 5, {2});
}

// Fig. 4's H2HCA World: 32 Jupiter nodes of 16 ranks, so intra-node bursts
// pair inline while inter-node messages are delivered from the window
// boundary, on whichever shard owns the destination.  Delivery must wait on
// absolute arrival times for the recording not to depend on that shard's
// clock.
TEST(RecorderInvariance, HierarchicalJupiterAcrossShards) {
  Scenario scenario;
  scenario.name = "jupiter32-h2hca";
  scenario.machine = topology::jupiter().with_nodes(32);
  scenario.sync_label = "top/hca3/40/skampi_offset/10/bottom/clockpropagation";
  scenario.accuracy_wait = 10.0;
  expect_invariant(scenario, 3, {2});
}

// --jobs invariance goes through runner::TrialRunner: each concurrent trial
// records into a private per-thread Recorder, absorbed in trial-index order
// — so a 4-worker sweep must serialize byte-identically to a sequential one.
std::string record_sweep_bytes(int jobs) {
  Recorder recorder;
  const ScopedRecorder install(&recorder);
  runner::TrialRunner pool(jobs);
  pool.map(4, /*base_seed=*/21, [](const runner::Trial& trial) {
    run_scenario(find_scenario("micro4"), trial.seed);
    return 0.0;
  });
  return serialize(recorder);
}

TEST(RecorderInvariance, JobsInvariantThroughTrialRunner) {
  const std::string sequential = record_sweep_bytes(1);
  const std::string parallel = record_sweep_bytes(4);
  EXPECT_EQ(sequential, parallel);
  const Recording parsed = parse(sequential);
  ASSERT_EQ(parsed.worlds.size(), 4u);
  for (std::size_t i = 0; i < parsed.worlds.size(); ++i) {
    EXPECT_EQ(parsed.worlds[i].info.seed, 21u + i) << "trial order preserved";
    EXPECT_EQ(parsed.worlds[i].info.label, "micro4");
  }
}

}  // namespace
}  // namespace hcs::replay
