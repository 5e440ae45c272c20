// Low-overhead structured event tracer (observability core).
//
// A Tracer records spans (timed intervals) and instant events keyed by
// (rank, time-source, category) into fixed-capacity per-rank ring buffers,
// so a runaway event source degrades to "oldest events dropped" instead of
// unbounded memory growth.  merged_events() flushes all rings into one
// deterministic stream ordered by (timestamp, record sequence) — identical
// runs produce identical streams, which the tests assert.
//
// The tracer is installed per-thread (install_tracer / ScopedTracer write a
// thread_local slot); the HCS_TRACE_SCOPE macro in span.hpp reads the active
// tracer through a single pointer load, so instrumentation costs one branch
// when tracing is off.  Thread scoping is what lets runner::TrialRunner give
// every concurrent trial a private tracer and merge them deterministically
// afterwards (absorb) without any locking on the record path.
//
// Timestamps come from a TimeSource.  simmpi::World installs itself as the
// source (true simulated time) while it is alive; exporters label events
// with the source they were recorded on, mirroring the paper's point that a
// trace is only interpretable if you know which clock stamped it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hcs::trace {

enum class Category : std::uint8_t { kSim, kNet, kColl, kSync, kBench, kApp };
const char* to_string(Category cat);

enum class TimeSourceKind : std::uint8_t { kSimTime, kLocalClock, kGlobalClock };
const char* to_string(TimeSourceKind kind);

struct TraceEvent {
  const char* name = "";  // static-storage string; the tracer does not copy
  double ts = 0.0;        // seconds on the recording time source
  double dur = -1.0;      // span duration; < 0 marks an instant event
  std::uint64_t seq = 0;  // global record order (deterministic tiebreak)
  std::int64_t arg = 0;   // one free integer argument (bytes, level, ...)
  std::int32_t rank = 0;
  Category cat = Category::kApp;
  TimeSourceKind source = TimeSourceKind::kSimTime;

  bool instant() const { return dur < 0.0; }
};

/// Provider of "now" for recorded events.  Implemented by simmpi::World
/// (simulated time); tests implement it with a fake.
class TimeSource {
 public:
  virtual ~TimeSource() = default;
  virtual double trace_now() const = 0;
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 1 << 14;  // events per rank

  explicit Tracer(std::size_t ring_capacity = kDefaultRingCapacity);

  std::size_t ring_capacity() const noexcept { return capacity_; }

  /// Sets (or clears, with nullptr) the timestamp provider.  Not owned.
  void set_time_source(TimeSource* source, TimeSourceKind kind = TimeSourceKind::kSimTime);
  const TimeSource* time_source() const noexcept { return source_; }
  TimeSourceKind time_source_kind() const noexcept { return kind_; }

  /// Current time on the installed source; 0.0 when none is installed.
  double now() const { return source_ ? source_->trace_now() : 0.0; }

  /// Records a span with explicit timestamps (for callers that know better
  /// times than "now", e.g. the synthesized ping-pong bursts).
  void record_complete(int rank, Category cat, const char* name, double ts, double dur,
                       std::int64_t arg = 0);

  /// Records an instant event stamped with now().
  void record_instant(int rank, Category cat, const char* name, std::int64_t arg = 0);

  std::uint64_t recorded() const noexcept { return recorded_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Flush: all per-rank rings merged into (ts, seq) order.  seq is unique,
  /// so the order is total and identical across identical runs.
  std::vector<TraceEvent> merged_events() const;

  /// Appends every event of `other` (in `other`'s record order) to this
  /// tracer, re-sequencing them as if they had just been recorded here.
  /// Absorbing per-trial tracers in trial-index order therefore yields the
  /// exact stream a sequential run of those trials would have produced —
  /// the merge step of runner::TrialRunner.  Events keep their rank,
  /// timestamps and time-source label; ring capacity applies as usual, and
  /// events `other` already dropped count as recorded and dropped here.
  void absorb(const Tracer& other);

  void clear();

 private:
  struct Ring {
    std::vector<TraceEvent> buf;  // capacity-bounded; oldest overwritten
    std::size_t next = 0;
    bool wrapped = false;
  };

  void push(int rank, TraceEvent ev);

  std::size_t capacity_;
  std::vector<Ring> rings_;  // indexed by rank; grown on demand
  TimeSource* source_ = nullptr;
  TimeSourceKind kind_ = TimeSourceKind::kSimTime;
  std::uint64_t seq_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
};

/// The calling thread's active tracer (nullptr = tracing off, the default).
/// The slot is thread_local: installing a tracer affects only the current
/// thread, and a tracer must not be shared between threads without external
/// synchronization.
Tracer* active_tracer() noexcept;
void install_tracer(Tracer* tracer) noexcept;

/// RAII install/uninstall, restoring the previous tracer.
class ScopedTracer {
 public:
  explicit ScopedTracer(Tracer* tracer);
  ~ScopedTracer();
  ScopedTracer(const ScopedTracer&) = delete;
  ScopedTracer& operator=(const ScopedTracer&) = delete;

 private:
  Tracer* previous_;
};

}  // namespace hcs::trace
