// Single-rank replay feed (docs/record-replay.md).
//
// A ReplayFeed walks one rank's recorded event stream in order.  The World
// transport hooks consume it instead of simulating the other ranks: receive
// completions and ping-pong bursts are answered straight from the log
// (resumed at the recorded absolute sim-time), sends and clock reads are
// verified against it.  Any mismatch between what the replayed program does
// and what the log says throws ReplayDivergence with enough detail to name
// the first diverging event.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>

#include "replay/record.hpp"

namespace hcs::replay {

/// The replayed rank did something the recording did not: different
/// operation, different arguments, different payload, or it ran past the
/// end of the log.
class ReplayDivergence : public std::runtime_error {
 public:
  ReplayDivergence(int rank, std::size_t index, std::string what)
      : std::runtime_error("replay divergence at rank " + std::to_string(rank) + ", event " +
                           std::to_string(index) + ": " + std::move(what)),
        rank_(rank),
        index_(index) {}

  int rank() const noexcept { return rank_; }
  std::size_t event_index() const noexcept { return index_; }

 private:
  int rank_;
  std::size_t index_;
};

class ReplayFeed {
 public:
  /// Serves `rank`'s events of `world`; the RecordedWorld must outlive the
  /// feed (the World holds the feed only by pointer, so the caller owns
  /// both).
  ReplayFeed(const RecordedWorld& world, int rank);

  int rank() const noexcept { return rank_; }

  /// Next unconsumed event, or nullptr once the log is exhausted.
  const Event* peek() const noexcept {
    return cursor_ < events_->size() ? &(*events_)[cursor_] : nullptr;
  }

  /// The one checked replay step: consumes and returns the next event after
  /// checking it against `want`, the event the replayed operation `op`
  /// would record.  Compared are the kind and the fields the replayed
  /// program itself determines: a send's peer, tag, bytes, time and digest;
  /// a clock read's time; a receive's or a receive timeout's peer and tag; a
  /// burst's peer and role flag; a membership marker's flag.  A mismatch or
  /// an exhausted log throws ReplayDivergence naming `op` and the first
  /// differing field, with both events rendered by describe_event.
  const Event& expect(const Event& want, std::string_view op);

  std::size_t consumed() const noexcept { return cursor_; }
  std::size_t remaining() const noexcept { return events_->size() - cursor_; }

  /// Throws ReplayDivergence carrying this feed's rank and cursor position.
  [[noreturn]] void diverge(const std::string& what) const {
    throw ReplayDivergence(rank_, cursor_, what);
  }

 private:
  const std::vector<Event>* events_;
  int rank_;
  std::size_t cursor_ = 0;
};

}  // namespace hcs::replay
