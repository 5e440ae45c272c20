// Divergence bisection between two recordings (docs/record-replay.md).
//
// Two runs that should be byte-identical sometimes are not; instead of
// "bytes differ", first_divergence() names the first event at which the two
// event streams disagree — rank, sim-time, event kind, payload digest —
// which is usually enough to localize the offending subsystem.  "First" is
// by (sim-time, rank, event index): the earliest simulated moment at which
// the two runs observably differ.
#pragma once

#include <optional>
#include <string>

#include "replay/format.hpp"

namespace hcs::replay {

struct Divergence {
  std::size_t world = 0;    // world index within the recordings
  int rank = -1;            // -1 for structural (header / world count) differences
  std::size_t index = 0;    // event index within the rank
  double time = 0.0;        // sim-time of the first diverging event
  std::string field;        // which part differed: "kind", "time", "payload", ...
  std::string detail;       // human-readable description of both sides
};

/// One-line rendering of one side's event for divergence reports; `missing`
/// events (one stream shorter than the other) render as "<absent>".
std::string describe_event(const Event& ev);

/// Event fields in diagnostic priority order (operation identity before
/// timing before payload), as bits of a mask of the fields to compare.
enum EventField : unsigned {
  kFieldKind = 1U << 0,
  kFieldPeer = 1U << 1,
  kFieldTag = 1U << 2,
  kFieldFlags = 1U << 3,
  kFieldBytes = 1U << 4,
  kFieldTime = 1U << 5,
  kFieldMessageTimes = 1U << 6,  // aux0 and aux1
  kFieldDigest = 1U << 7,
  kFieldValues = 1U << 8,
  kAllFields = (1U << 9) - 1,
};

/// Name of the first of `fields` in which `a` and `b` differ ("kind",
/// "peer", ..., "payload" for the digest or the values), or nullptr when
/// they agree on all of them.
const char* differing_field(const Event& a, const Event& b, unsigned fields = kAllFields);

/// The first point at which the two recordings disagree, or nullopt when
/// they are equivalent.  World count, per-world header info and per-rank
/// event streams are all compared; header-only differences (e.g. two
/// different fault plans, as in a deliberate perturbation experiment) are
/// reported only if every event stream matches, so an injected perturbation
/// is always pinpointed by its first observable event.
std::optional<Divergence> first_divergence(const Recording& a, const Recording& b);

}  // namespace hcs::replay
