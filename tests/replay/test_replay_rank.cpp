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

// One tampered field of one event, per event kind: replay must stop at that
// event and name that field.
struct Tamper {
  const char* scenario;
  const char* name;
  bool (*pick)(const Event&);  // the event to tamper: the first one it selects
  void (*tamper)(Event&);
  const char* field;
};

bool is_send(const Event& ev) { return ev.kind == EventKind::kSend; }
bool is_recv(const Event& ev) { return ev.kind == EventKind::kRecv; }
bool is_burst(const Event& ev) { return ev.kind == EventKind::kBurst; }
bool is_timeout(const Event& ev) { return ev.kind == EventKind::kRecvTimeout; }
bool is_clock_read(const Event& ev) { return ev.kind == EventKind::kClockRead; }
bool is_restart(const Event& ev) { return ev.kind == EventKind::kMembership && ev.flags == 1; }

const Tamper kTampers[] = {
    {"micro4", "send peer", is_send, [](Event& ev) { ev.peer += 1; }, "peer"},
    {"micro4", "send tag", is_send, [](Event& ev) { ev.tag += 1; }, "tag"},
    {"micro4", "send bytes", is_send, [](Event& ev) { ev.bytes += 1; }, "bytes"},
    {"micro4", "send time", is_send, [](Event& ev) { ev.time += 1e-9; }, "time"},
    {"micro4", "send digest", is_send, [](Event& ev) { ev.digest ^= 1; }, "payload"},
    {"micro4", "recv tag", is_recv, [](Event& ev) { ev.tag += 1; }, "tag"},
    {"micro4", "burst role", is_burst, [](Event& ev) { ev.flags ^= 1; }, "flags"},
    {"micro4-crash", "recv timeout peer", is_timeout, [](Event& ev) { ev.peer += 1; }, "peer"},
    {"micro4", "clock read time", is_clock_read, [](Event& ev) { ev.time += 1e-9; }, "time"},
    {"micro4-churn", "restart flag", is_restart, [](Event& ev) { ev.flags = 3; }, "flags"},
};

TEST(ReplayRank, TamperedFieldIsNamedAtItsEvent) {
  for (const Tamper& t : kTampers) {
    SCOPED_TRACE(t.name);
    const Captured c = capture(t.scenario, 17);
    RecordedWorld world = c.recorder.world(0);
    int rank = -1;
    std::size_t index = 0;
    for (int r = 0; r < world.info.nranks && rank < 0; ++r) {
      const std::vector<Event>& events = world.ranks[static_cast<std::size_t>(r)];
      for (std::size_t i = 0; i < events.size() && rank < 0; ++i) {
        if (t.pick(events[i])) {
          rank = r;
          index = i;
        }
      }
    }
    ASSERT_GE(rank, 0) << "no such event in the recording";
    t.tamper(world.ranks[static_cast<std::size_t>(rank)][index]);
    try {
      replay_scenario_rank(find_scenario(t.scenario), world, rank);
      ADD_FAILURE() << "expected ReplayDivergence";
    } catch (const ReplayDivergence& d) {
      EXPECT_EQ(d.rank(), rank);
      EXPECT_EQ(d.event_index(), index);
      EXPECT_NE(std::string(d.what()).find(std::string(": ") + t.field + " differs\n"),
                std::string::npos)
          << d.what();
    }
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
    EXPECT_THROW(sharded.attach_replay(&feed), std::invalid_argument)
        << "replay requires an unsharded World";
  }
  simmpi::World world1(scenario.machine, 17, scenario.faults, /*shards=*/1);
  EXPECT_THROW(world1.attach_replay(nullptr), std::invalid_argument);
  // A feed of a wider recording may serve a rank the World does not have.
  WorldInfo wider = world.info;
  wider.nranks = world1.size() + 1;
  const RecordedWorld wider_world(std::move(wider));
  ReplayFeed outside(wider_world, world1.size());
  EXPECT_THROW(world1.attach_replay(&outside), std::out_of_range);
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
  const Event& read =
      feed.expect({.kind = EventKind::kClockRead, .time = 1.5, .values = {}}, "clock read");
  EXPECT_EQ(read.values, ev.values);
  EXPECT_EQ(feed.peek(), nullptr);
  EXPECT_EQ(feed.consumed(), 1u);
  try {
    feed.expect({.kind = EventKind::kRecv, .peer = 0, .values = {}}, "recv");
    ADD_FAILURE() << "expected ReplayDivergence";
  } catch (const ReplayDivergence& d) {
    EXPECT_EQ(d.event_index(), 1u);
    EXPECT_NE(std::string(d.what()).find("recv: count differs"), std::string::npos) << d.what();
    EXPECT_NE(std::string(d.what()).find("recording: <absent>"), std::string::npos) << d.what();
  }
  EXPECT_THROW(ReplayFeed(world, 5), std::out_of_range);
}

}  // namespace
}  // namespace hcs::replay
