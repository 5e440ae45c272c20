#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace hcs::sim {

// Out of line on purpose: sift-down only runs for pops on a populated heap,
// while push/pop stay inline in the header for the hot path.
//
// Bottom-up variant (the std::pop_heap trick): the displaced event comes
// from the end of the heap, so it almost always belongs near a leaf again.
// Walking the hole straight to the bottom and then sifting the event back up
// skips the against-the-event comparison at every level, cutting average
// comparisons by ~a quarter on large heaps.
void EventQueue::sift_down(Event ev) noexcept {
  std::vector<Event>& v = heap_;
  const std::size_t n = v.size();
  std::size_t hole = 0;
  // Phase 1: promote the earliest of up to four adjacent children into the
  // hole until the hole reaches a leaf.
  std::size_t first_child = 1;
  while (first_child < n) {
    std::size_t best = first_child;
    const std::size_t end = first_child + kArity < n ? first_child + kArity : n;
    for (std::size_t c = first_child + 1; c < end; ++c) {
      if (before(v[c], v[best])) best = c;
    }
    v[hole] = v[best];
    hole = best;
    first_child = hole * kArity + 1;
  }
  // Phase 2: sift the displaced event back up to its true position (usually
  // zero or one level).
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!before(ev, v[parent])) break;
    v[hole] = v[parent];
    hole = parent;
  }
  v[hole] = ev;
}

void EventQueue::cancel(std::uint64_t seq) {
  assert(!heap_.empty() && seq < next_seq_);
  [[maybe_unused]] const bool fresh = cancelled_.insert(seq).second;
  assert(fresh);
  if (heap_.front().seq == seq) {
    drop_cancelled_top();
  } else if (2 * cancelled_.size() >= heap_.size()) {
    compact();
  }
}

void EventQueue::drop_cancelled_top() {
  while (!heap_.empty() && cancelled_.erase(heap_.front().seq) != 0) remove_top();
}

// A sorted array is a valid heap of any arity, so the survivors are sorted
// by (time, seq) instead of re-heapified.  A compaction follows at least n/2
// cancels of an n-entry heap, so it costs amortized O(log n) per cancel, and
// only runs that cancel pay it.
void EventQueue::compact() {
  std::vector<Event> live;
  live.reserve(std::max<std::size_t>(2 * (heap_.size() - cancelled_.size()), 64));
  for (const Event& ev : heap_) {
    if (cancelled_.erase(ev.seq) == 0) live.push_back(ev);
  }
  assert(cancelled_.empty());
  std::sort(live.begin(), live.end(), before);
  heap_.swap(live);
}

void EventQueue::shrink() {
  std::vector<Event> smaller;
  smaller.reserve(std::max<std::size_t>(heap_.size() * 2, 64));
  smaller.insert(smaller.end(), heap_.begin(), heap_.end());
  heap_.swap(smaller);
}

}  // namespace hcs::sim
