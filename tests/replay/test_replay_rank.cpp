// Single-rank replay: re-executing one rank against its recording — without
// simulating the rest of the World — must reproduce that rank's outcome,
// including the final HCA-3 clock model probed at fixed times, bit-exactly.
// Also covers divergence detection and the provenance guards.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "replay/feed.hpp"
#include "replay/harness.hpp"
#include "replay/record.hpp"
#include "replay/scenario.hpp"
#include "simmpi/world.hpp"

namespace hcs::replay {
namespace {

struct Captured {
  Recorder recorder;
  std::vector<RankOutcome> outcomes;
};

Captured capture(const std::string& scenario, std::uint64_t seed) {
  Captured c;
  const ScopedRecorder install(&c.recorder);
  c.outcomes = run_scenario(find_scenario(scenario), seed);
  return c;
}

TEST(ReplayRank, EveryMicro4RankReproducesBitExactly) {
  const Captured c = capture("micro4", 17);
  const RecordedWorld& world = c.recorder.world(0);
  for (int rank = 0; rank < world.info.nranks; ++rank) {
    const RankOutcome replayed = replay_scenario_rank(find_scenario("micro4"), world, rank);
    EXPECT_EQ(describe_outcome(replayed),
              describe_outcome(c.outcomes[static_cast<std::size_t>(rank)]))
        << "rank " << rank;
  }
}

// The acceptance case (ISSUE 8): a recorded HCA-3 run's rank replays to the
// identical final clock model.  ring8 runs the full hca3/1000 pipeline; the
// probes in RankOutcome are noiseless at_exact() evaluations of the learned
// model, so string equality of the hexfloat rendering is bit-exactness.
TEST(ReplayRank, Hca3ClockModelBitExactOnRing8) {
  const Captured c = capture("ring8", 23);
  const RecordedWorld& world = c.recorder.world(0);
  const int rank = 3;
  const RankOutcome replayed = replay_scenario_rank(find_scenario("ring8"), world, rank);
  const RankOutcome& recorded = c.outcomes[static_cast<std::size_t>(rank)];
  ASSERT_TRUE(replayed.ran);
  ASSERT_EQ(replayed.probes.size(), kProbeTimes.size());
  for (std::size_t i = 0; i < replayed.probes.size(); ++i) {
    // EXPECT_EQ on doubles is exact — that is the point.
    EXPECT_EQ(replayed.probes[i], recorded.probes[i]) << "probe " << i;
  }
  EXPECT_EQ(describe_outcome(replayed), describe_outcome(recorded));
}

// H²HCA splits the world twice (node communicators, then the leaders'), so a
// replayed rank can rebuild its communicators only from the split payloads
// in its recording.  Ranks 0 and 16 lead their nodes, 1 and 63 do not.
TEST(ReplayRank, H2hcaRanksReproduceBitExactly) {
  Scenario scenario;
  scenario.name = "h2hca-titan4";
  scenario.machine = topology::titan().with_nodes(4);
  scenario.sync_label = "top/hca3/50/skampi_offset/8/bottom/clockpropagation";
  std::vector<RankOutcome> outcomes;
  Recorder recorder;
  {
    const ScopedRecorder install(&recorder);
    outcomes = run_scenario(scenario, 31);
  }
  const RecordedWorld& world = recorder.world(0);
  ASSERT_EQ(world.info.nranks, 64);
  for (const int rank : {0, 1, 16, 63}) {
    const RankOutcome replayed = replay_scenario_rank(scenario, world, rank);
    const RankOutcome& recorded = outcomes[static_cast<std::size_t>(rank)];
    ASSERT_TRUE(recorded.ran) << "rank " << rank;
    EXPECT_EQ(describe_outcome(replayed), describe_outcome(recorded)) << "rank " << rank;
  }
}

TEST(ReplayRank, CrashedRankReplaysAsCrashed) {
  const Captured c = capture("micro4-crash", 17);
  const RecordedWorld& world = c.recorder.world(0);
  const RankOutcome crashed =
      replay_scenario_rank(find_scenario("micro4-crash"), world, /*rank=*/2);
  EXPECT_FALSE(crashed.ran);
  EXPECT_EQ(describe_outcome(crashed), describe_outcome(c.outcomes[2]));
  const RankOutcome survivor =
      replay_scenario_rank(find_scenario("micro4-crash"), world, /*rank=*/0);
  EXPECT_TRUE(survivor.ran);
  EXPECT_EQ(describe_outcome(survivor), describe_outcome(c.outcomes[0]));
}

TEST(ReplayRank, TamperedRecordingRaisesDivergence) {
  Captured c = capture("micro4", 17);
  RecordedWorld& world =
      const_cast<RecordedWorld&>(c.recorder.world(0));  // tests may tamper
  ASSERT_FALSE(world.ranks[1].empty());
  world.ranks[1][world.ranks[1].size() / 2].time += 1e-9;
  try {
    replay_scenario_rank(find_scenario("micro4"), world, 1);
    FAIL() << "expected ReplayDivergence";
  } catch (const ReplayDivergence& d) {
    EXPECT_EQ(d.rank(), 1);
    EXPECT_NE(std::string(d.what()).find("replay divergence"), std::string::npos);
  }
}

TEST(ReplayRank, WrongScenarioIsRejected) {
  const Captured c = capture("micro4", 17);
  EXPECT_THROW(replay_scenario_rank(find_scenario("ring8"), c.recorder.world(0), 0),
               std::invalid_argument);
  EXPECT_THROW(replay_scenario_rank(find_scenario("micro4-crash"), c.recorder.world(0), 0),
               std::invalid_argument);
}

TEST(ReplayRank, AttachReplayGuards) {
  const Captured c = capture("micro4", 17);
  const RecordedWorld& world = c.recorder.world(0);
  ReplayFeed feed(world, 0);
  const Scenario& scenario = find_scenario("micro4");
  {
    simmpi::World sharded(scenario.machine, 17, scenario.faults, /*shards=*/2);
    EXPECT_THROW(sharded.attach_replay(&feed, 0), std::invalid_argument)
        << "replay requires an unsharded World";
  }
  simmpi::World world1(scenario.machine, 17, scenario.faults, /*shards=*/1);
  EXPECT_THROW(world1.attach_replay(nullptr, 0), std::invalid_argument);
  EXPECT_THROW(world1.attach_replay(&feed, 99), std::out_of_range);
}

TEST(ReplayFeedUnit, StrictFifoAndExhaustion) {
  WorldInfo info;
  info.nranks = 1;
  RecordedWorld world(std::move(info));
  Event ev;
  ev.kind = EventKind::kClockRead;
  ev.time = 1.5;
  ev.values = {1.5000001};
  world.append(0, ev);
  ReplayFeed feed(world, 0);
  ASSERT_NE(feed.peek(), nullptr);
  EXPECT_EQ(feed.peek()->kind, EventKind::kClockRead);
  EXPECT_EQ(feed.remaining(), 1u);
  feed.take();
  EXPECT_EQ(feed.peek(), nullptr);
  EXPECT_EQ(feed.consumed(), 1u);
  EXPECT_THROW(feed.expect(EventKind::kRecv, 0), ReplayDivergence);
  EXPECT_THROW(ReplayFeed(world, 5), std::out_of_range);
}

}  // namespace
}  // namespace hcs::replay
