#include "replay/feed.hpp"

#include <stdexcept>

#include "replay/bisect.hpp"

namespace hcs::replay {

ReplayFeed::ReplayFeed(const RecordedWorld& world, int rank)
    : events_(nullptr), rank_(rank) {
  if (rank < 0 || rank >= world.info.nranks) {
    throw std::out_of_range("ReplayFeed: rank " + std::to_string(rank) +
                            " not in recorded world of " + std::to_string(world.info.nranks) +
                            " ranks");
  }
  events_ = &world.ranks[static_cast<std::size_t>(rank)];
}

namespace {

// The fields a replay step compares besides the kind: those the replayed
// program determines itself.  A send is wholly its own; a receive's, a
// receive timeout's or a burst's result and resume time come from the log,
// as do a clock read's value and a restart's incarnation.
unsigned checked_fields(EventKind kind) {
  switch (kind) {
    case EventKind::kSend:
      return kFieldPeer | kFieldTag | kFieldBytes | kFieldTime | kFieldDigest;
    case EventKind::kRecv:
    case EventKind::kRecvTimeout:
      return kFieldPeer | kFieldTag;
    case EventKind::kBurst:
      return kFieldPeer | kFieldFlags;
    case EventKind::kClockRead:
      return kFieldTime;
    case EventKind::kMembership:
      return kFieldFlags;
  }
  return kAllFields;
}

}  // namespace

const Event& ReplayFeed::expect(const Event& want, std::string_view op) {
  const Event* got = peek();
  const char* field =
      got == nullptr ? "count" : differing_field(want, *got, kFieldKind | checked_fields(want.kind));
  if (field != nullptr) {
    diverge(std::string(op) + ": " + field + " differs\n  replay:    " + describe_event(want) +
            "\n  recording: " + (got == nullptr ? "<absent>" : describe_event(*got)));
  }
  ++cursor_;
  return *got;
}

}  // namespace hcs::replay
