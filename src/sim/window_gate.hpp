// Spin-then-park window handoff for the sharded World engine.
//
// A WindowGate owns a crew of worker threads.  The coordinating thread
// opens a window, in which worker i runs body(i) once, does work of its own
// (the World runs shard 0 there), and closes the window, which returns once
// every worker has finished.  Two atomics carry the protocol: an epoch that
// open() bumps, and the count of workers still inside the window.
//
// Each side waits by spinning on its atomic for a fixed number of CPU-relax
// hints, yielding now and then, and then parks on it with C++20 atomic
// wait/notify.  The budget counts iterations, not host time: nothing under
// src/sim reads a host clock.  A crew that, with the coordinator, outnumbers
// the host's hardware threads parks at once, because a spinning thread would
// hold a core that a thread with work needs.
//
// Ordering: open() is a release and a worker's wake-up an acquire, so a
// worker sees all the coordinator wrote before opening.  A worker's finish
// is an acq_rel decrement and close() reads the count with acquire, so once
// close() returns the coordinator sees all the workers wrote.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace hcs::sim {

class WindowGate {
 public:
  /// Relax hints before a waiting side parks.  2^15 pauses take about
  /// 0.7 ms on a recent Xeon: longer than the serial phase plus the lone
  /// windows between two parallel windows of a 4096-rank HCA3 run.
  static constexpr int kSpinBudget = 1 << 15;
  /// Every this many hints the spin yields the CPU instead.  A host may run
  /// freshly started threads on one CPU for a while; there a pure spin would
  /// hold that CPU from the side it waits for until its budget runs out.
  static constexpr int kYieldEvery = 256;

  /// Starts `workers` threads; worker i runs body(i) once per window.  They
  /// spin before parking only if the crew and the coordinator fit the host's
  /// hardware threads.  `body` must not throw (the World's body parks a
  /// shard's errors for Simulation::take_error); a throw ends the program.
  WindowGate(int workers, std::function<void(int)> body)
      : WindowGate(workers, std::move(body), workers < host_threads()) {}

  /// As above, with the choice to spin made by the caller.
  WindowGate(int workers, std::function<void(int)> body, bool spin)
      : spin_budget_(spin ? kSpinBudget : 0), body_(std::move(body)) {
    try {
      for (int i = 0; i < workers; ++i) threads_.emplace_back([this, i] { work(i); });
    } catch (...) {
      stop();
      throw;
    }
  }

  ~WindowGate() { stop(); }
  WindowGate(const WindowGate&) = delete;
  WindowGate& operator=(const WindowGate&) = delete;

  /// Coordinator: opens a window; every worker runs its body once.
  void open() {
    inside_.store(static_cast<std::uint32_t>(threads_.size()), std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    std::atomic_notify_all(&epoch_);
  }

  /// Coordinator: returns once every worker has finished the open window.
  void close() const {
    settle(inside_, [](std::uint32_t n) { return n == 0; });
  }

  /// Lets an open window finish, then wakes and joins every worker, spinning
  /// or parked.  Safe to call again.
  void stop() {
    if (threads_.empty()) return;
    close();
    stopping_.store(true, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    std::atomic_notify_all(&epoch_);
    for (std::thread& t : threads_) t.join();
    threads_.clear();
  }

 private:
  static int host_threads() {
    static const auto n = static_cast<int>(std::thread::hardware_concurrency());
    return n;
  }

  static void relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#endif
  }

  // Spins, then parks, until `done` holds for the value of `a` (read with
  // acquire); returns that value.
  template <class Done>
  std::uint32_t settle(const std::atomic<std::uint32_t>& a, Done done) const {
    std::uint32_t v = a.load(std::memory_order_acquire);
    for (int i = 1; i <= spin_budget_ && !done(v); ++i) {
      if (i % kYieldEvery == 0) {
        std::this_thread::yield();
      } else {
        relax();
      }
      v = a.load(std::memory_order_acquire);
    }
    while (!done(v)) {
      std::atomic_wait_explicit(&a, v, std::memory_order_acquire);
      v = a.load(std::memory_order_acquire);
    }
    return v;
  }

  void work(int i) {
    for (std::uint32_t seen = 0;;) {
      seen = settle(epoch_, [seen](std::uint32_t e) { return e != seen; });
      if (stopping_.load(std::memory_order_relaxed)) return;
      body_(i);
      if (inside_.fetch_sub(1, std::memory_order_acq_rel) == 1) std::atomic_notify_one(&inside_);
    }
  }

  // Apart, so workers polling the epoch do not share a line with the count
  // they decrement.
  alignas(64) std::atomic<std::uint32_t> epoch_{0};
  std::atomic<bool> stopping_{false};
  alignas(64) std::atomic<std::uint32_t> inside_{0};
  int spin_budget_;
  std::function<void(int)> body_;
  std::vector<std::thread> threads_;
};

}  // namespace hcs::sim
