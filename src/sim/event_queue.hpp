// Time-ordered event queue: a 4-ary implicit min-heap.
//
// Events at equal timestamps fire in insertion order (sequence-number
// tie-break) so runs are bit-deterministic.  (time, seq) is a *total* order,
// so the pop sequence — and with it every simulation output — is fixed by
// the pushes alone, whatever the queue's internals.
//
// Compared with the binary heap the 4-ary heap halves the tree depth, so a
// push/pop pair touches fewer cache lines and sift-down decides among four
// children that share one or two lines (an Event is 24 bytes).  Pops use the
// bottom-up heapsort trick.  docs/performance.md records why this is the only
// engine: no measured workload keeps enough events pending for an O(1)
// calendar-style queue to pay for itself.  bench_micro_sim
// (BM_EventQueuePushPop) measures push/pop throughput and
// tests/sim/test_event_queue.cpp asserts the ordering contract.
//
// An event either resumes a coroutine or fires a Callback: a plain function
// on an object the pusher owns, for work that needs no stack of its own (a
// message delivery).  Both kinds share one sequence, so they interleave in
// push order at equal times.
//
// Any event can be cancelled by its sequence number, which push() returns
// (Simulation's timers are built on this).  A cancelled entry stays in the
// heap until it surfaces at the top, where it is dropped unseen: the top is
// always a live event, so next_time() never reports a cancelled one.  Once
// cancelled entries make up half the heap, it is rebuilt without them, so
// storage stays within 2x the live events however many timers are armed and
// cancelled.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "sim/time.hpp"

namespace hcs::sim {

/// A cancellable event's identity: its queue sequence number.
using TimerId = std::uint64_t;
inline constexpr TimerId kNoTimer = UINT64_MAX;

/// A non-coroutine event: `fire` runs with the callback itself when the
/// event pops.  The pusher owns the object and keeps it alive until it fires
/// or the queue is cleared; a cleared queue drops it unfired.
struct Callback {
  void (*fire)(Callback&) = nullptr;
};

class EventQueue {
 public:
  /// The payload word is a coroutine frame address or, with this bit set, a
  /// Callback's address.  Both are at least 2-byte aligned, so the bit is
  /// free, and a handle is only ever rebuilt from an untagged word.
  static constexpr std::uintptr_t kCallbackTag = 1;

  struct Event {
    Time time;
    std::uint64_t seq;
    std::uintptr_t payload;

    bool is_callback() const noexcept { return (payload & kCallbackTag) != 0; }
    std::coroutine_handle<> handle() const noexcept {
      assert(!is_callback());
      return std::coroutine_handle<>::from_address(reinterpret_cast<void*>(payload));
    }
    Callback& callback() const noexcept {
      assert(is_callback());
      return *reinterpret_cast<Callback*>(payload & ~kCallbackTag);
    }
  };

  // push/pop are defined inline: they sit on the simulator's per-event hot
  // path and must inline into Simulation::run and the delay awaiter.
  // Returns the event's sequence number, the id cancel() takes.
  std::uint64_t push(Time time, std::coroutine_handle<> handle) {
    const auto word = reinterpret_cast<std::uintptr_t>(handle.address());
    assert((word & kCallbackTag) == 0);
    return push_word(time, word);
  }
  std::uint64_t push(Time time, Callback& callback) {
    return push_word(time, reinterpret_cast<std::uintptr_t>(&callback) | kCallbackTag);
  }

  bool empty() const noexcept { return heap_.empty(); }
  /// Live (not cancelled) events.
  std::size_t size() const noexcept { return heap_.size() - cancelled_.size(); }

  /// Earliest live event time; queue must be non-empty.
  Time next_time() const noexcept { return heap_.front().time; }

  /// Removes and returns the earliest live event; queue must be non-empty.
  Event pop() {
    const Event top = heap_.front();
    remove_top();
    // The one branch a run without cancellations pays per pop.
    if (!cancelled_.empty()) drop_cancelled_top();
    return top;
  }

  /// Cancels the pending event `seq` (a push() result): it will never pop.
  /// The event must still be queued: neither popped nor cancelled before.
  void cancel(std::uint64_t seq);

  /// Drops all pending events without resuming or firing them.  Coroutine
  /// frames are owned by their parents / root wrappers and callbacks by their
  /// pushers, so nothing is destroyed here.  Also resets the tie-break
  /// sequence and releases backing storage, so a reused queue behaves
  /// exactly like a fresh one.
  void clear() noexcept {
    // Not `heap_ = {}`: that picks the initializer_list assignment, which
    // empties the vector but keeps its capacity.
    std::vector<Event>().swap(heap_);
    std::unordered_set<std::uint64_t>().swap(cancelled_);
    next_seq_ = 0;
  }

  /// Event slots of backing storage currently reserved.  Diagnostics/tests
  /// only: the pop-shrink and compaction policies are asserted with this (a
  /// drained queue must not pin a burst's memory, nor cancelled timers a
  /// long run's).
  std::size_t backing_capacity() const noexcept { return heap_.capacity(); }

 private:
  static constexpr std::size_t kArity = 4;
  static constexpr std::size_t kShrinkMinCapacity = 4096;

  std::uint64_t push_word(Time time, std::uintptr_t payload) {
    const Event ev{time, next_seq_++, payload};
    // Sift up with a moving hole: write the new event only once, into its
    // final slot, instead of swapping down the path.  The no-move case (new
    // event belongs at the end — always true for a near-empty queue) keeps
    // the single store done by push_back.
    std::size_t hole = heap_.size();
    heap_.push_back(ev);
    if (hole > 0 && before(ev, heap_[(hole - 1) / kArity])) {
      do {
        const std::size_t parent = (hole - 1) / kArity;
        heap_[hole] = heap_[parent];
        hole = parent;
      } while (hole > 0 && before(ev, heap_[(hole - 1) / kArity]));
      heap_[hole] = ev;
    }
    return ev.seq;
  }

  static bool before(const Event& a, const Event& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void remove_top() {
    if (heap_.size() > 1) {
      const Event last = heap_.back();
      heap_.pop_back();
      sift_down(last);
    } else {
      heap_.pop_back();  // single element: no displaced event to re-sift
    }
    // Shrink policy: after a pop leaves the heap at < 1/4 of a >= 4096-slot
    // capacity, reallocate to 2x the live size.  Amortized O(1) per pop, and
    // a fully drained 10M-event burst ends below 4096 slots (~96 KiB).
    if (heap_.capacity() >= kShrinkMinCapacity && heap_.size() < heap_.capacity() / 4) {
      shrink();
    }
  }

  // Re-seats `ev` (displaced from the back) starting from the root hole.
  void sift_down(Event ev) noexcept;
  void shrink();
  // Pops cancelled entries off the top until a live event (or nothing) is
  // there.
  void drop_cancelled_top();
  // Rebuilds the heap without its cancelled entries.
  void compact();

  std::uint64_t next_seq_ = 0;
  std::vector<Event> heap_;
  std::unordered_set<std::uint64_t> cancelled_;  // still in heap_
};

// Cancellation keys on the sequence number and the kind rides in the
// payload's low bit, so an event needs no flag.
static_assert(sizeof(EventQueue::Event) == 24, "an Event fills 24 bytes");
static_assert(alignof(Callback) > EventQueue::kCallbackTag, "a Callback's low bit is free");

}  // namespace hcs::sim
