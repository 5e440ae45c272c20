// Scenario harness: one recordable, replayable rank program
// (docs/record-replay.md).
//
// Every capture scenario runs the same program on every rank: synchronize
// with the scenario's algorithm, probe the learned clock model at fixed
// noiseless times, then run a two-pass accuracy check.  The per-rank
// RankOutcome summarizes everything downstream tests assert on; because all
// of its inputs come through the recorded transport surface, replaying one
// rank against its recording reproduces its outcome bit-for-bit.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "replay/record.hpp"
#include "replay/scenario.hpp"

namespace hcs::replay {

/// Noiseless probe times (absolute simulated seconds) at which each rank
/// evaluates its synchronized clock model via at_exact(); bit-exact model
/// equality is asserted through these.
inline constexpr std::array<double, 5> kProbeTimes = {0.0, 0.5, 1.0, 2.0, 10.0};

struct RankOutcome {
  bool ran = false;        // false: the rank crashed before finishing
  int health = -1;         // clocksync::SyncHealth as int; -1 = no result
  int points_used = 0;     // fit points that survived validity checks
  double sync_end = 0.0;   // sim-time when sync_clocks returned
  std::vector<double> probes;  // model at kProbeTimes (at_exact, noiseless)
  double max_abs_t0 = 0.0;     // accuracy right after sync (p_ref only)
  double max_abs_t1 = 0.0;     // accuracy after accuracy_wait (p_ref only)
};

/// One line per outcome, doubles in hexfloat (%a): round-trips bit-exactly
/// through text, so incident sidecars can assert bit-for-bit reproduction.
std::string describe_outcome(const RankOutcome& outcome);

/// Parses a describe_outcome() line back; throws std::invalid_argument on
/// malformed input.
RankOutcome parse_outcome(const std::string& line);

/// Runs the scenario's World on `shards` event-loop shards to completion
/// (recording it when a Recorder is installed on this thread — the scenario
/// name becomes the section label) and returns every rank's outcome.
std::vector<RankOutcome> run_scenario(const Scenario& scenario, std::uint64_t seed,
                                      int shards = 1);

/// Replays `rank` of a recording of this scenario without simulating the
/// other ranks.  The RecordedWorld's header must match the scenario (same
/// machine, fault plan, and fault seed); throws std::invalid_argument when
/// it does not and ReplayDivergence when the replayed rank deviates from the
/// log (including not consuming it fully).
RankOutcome replay_scenario_rank(const Scenario& scenario, const RecordedWorld& recorded,
                                 int rank);

}  // namespace hcs::replay
