// Deterministic event-order recorder (docs/record-replay.md).
//
// A Recorder captures, per World and per rank, the complete sequence of
// transport-level observations a rank program makes: message sends (payload
// digest only), receive completions (full payload, so a replay can feed
// them back), receive timeouts, synthesized ping-pong bursts, and direct
// clock reads.  Together these are exactly the inputs a rank's control flow
// depends on — replaying them reproduces that rank bit-for-bit without
// simulating the rest of the World (replay/feed.hpp).
//
// Determinism contract: events are appended only from the shard thread that
// owns the rank (each rank has a private buffer sized at World creation, so
// appends never race or reallocate), and serialization walks worlds and
// ranks in index order.  Because every recorded quantity is part of the
// simulated timeline — which the engine already guarantees is bit-identical
// across --jobs/--shards — recordings are byte-identical across both
// knobs; tests/replay/test_invariance.cpp gates this.
//
// The recorder is installed per-thread (install_recorder / ScopedRecorder),
// mirroring trace::Tracer: runner::TrialRunner gives each concurrent trial
// a private Recorder and absorbs them in trial-index order afterwards.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "simmpi/message.hpp"

namespace hcs::replay {

enum class EventKind : std::uint8_t {
  kSend = 1,         // peer = dst; payload digest only
  kRecv = 2,         // peer = src; full payload (replay feeds it back)
  kRecvTimeout = 3,  // peer = src; bounded receive gave up at `time`
  kBurst = 4,        // peer = partner; flags bit 0 = caller was the client
  kClockRead = 5,    // values[0] = the noisy clock reading
  // Format v2: a membership transition of the recorded rank itself.
  // flags 0 = departure (the rank's program unwound via RankCrashed here),
  // flags 1 = restart (the churn supervisor brought incarnation aux0 up).
  kMembership = 6,   // aux0 = incarnation index (as a double)
};

const char* to_string(EventKind kind);

/// One recorded observation.  `time` is the simulated time at which the
/// rank's program observes the result (send dispatch, receive completion,
/// burst resume, clock read) — the instant replay resumes the rank at.
struct Event {
  EventKind kind = EventKind::kSend;
  std::uint8_t flags = 0;       // kBurst: bit 0 set when the caller was the client
  std::int32_t peer = -1;       // the other rank (world numbering); -1 = none
  std::int64_t tag = 0;
  std::int64_t bytes = 0;       // declared wire size (send/recv)
  double time = 0.0;            // simulated observation time
  double aux0 = 0.0;            // kRecv: message sent_at
  double aux1 = 0.0;            // kRecv: message arrived_at
  std::uint64_t digest = 0;     // FNV-1a over the payload double bits
  std::vector<double> values;   // payload / encoded burst / clock reading

  bool operator==(const Event& other) const = default;
};

/// FNV-1a over the raw bit patterns of `values` (deterministic across
/// platforms with IEEE-754 doubles; 0.0 and -0.0 digest differently, which
/// is what a bit-exactness oracle wants).
std::uint64_t payload_digest(const std::vector<double>& values);

/// Burst results travel inside Event::values; both directions live here so
/// the recorder and the replay feed can never disagree on the layout.
std::vector<double> encode_burst(const simmpi::BurstResult& result);
simmpi::BurstResult decode_burst(const std::vector<double>& values);

/// Identity of one recorded World, written into the file header so a
/// recording is self-describing (the incident suite rebuilds the World from
/// it; hcs_bisect prints it when two recordings disagree on provenance).
struct WorldInfo {
  std::uint64_t seed = 0;
  std::int32_t nranks = 0;
  std::uint64_t fault_seed = 0;
  std::string machine;     // MachineConfig::describe()
  std::string fault_plan;  // FaultPlan::describe(); empty = fault-free
  std::string label;       // optional scenario / bench label

  bool operator==(const WorldInfo& other) const = default;
};

/// Per-World event log: one append-only buffer per rank.  Buffers are sized
/// at construction, so concurrent appends for different ranks (different
/// shard threads) touch disjoint, stable storage.
struct RecordedWorld {
  WorldInfo info;
  std::vector<std::vector<Event>> ranks;  // [rank] -> events in program order

  explicit RecordedWorld(WorldInfo world_info)
      : info(std::move(world_info)), ranks(static_cast<std::size_t>(info.nranks)) {}

  void append(int rank, Event ev) {
    ranks[static_cast<std::size_t>(rank)].push_back(std::move(ev));
  }

  std::uint64_t total_events() const noexcept {
    std::uint64_t n = 0;
    for (const auto& r : ranks) n += r.size();
    return n;
  }
};

struct Recording;  // replay/format.hpp

class Recorder {
 public:
  /// Starts a new World section; the returned reference stays valid for the
  /// Recorder's lifetime (sections are heap-allocated).  Called by the World
  /// constructor on whichever thread constructs the World.
  RecordedWorld& begin_world(WorldInfo info);

  /// Label stamped into the next begin_world call (scenario captures name
  /// their Worlds this way); cleared once used.
  void set_pending_label(std::string label) { pending_label_ = std::move(label); }

  std::size_t world_count() const noexcept { return worlds_.size(); }
  const RecordedWorld& world(std::size_t index) const { return *worlds_[index]; }

  /// Moves every World section of `other` (in order) to the end of this
  /// recorder — the trial-index-order merge step of runner::TrialRunner,
  /// mirroring trace::Tracer::absorb.
  void absorb(Recorder& other);

  /// Moves every World section out, in order, as the Recording that
  /// parse(serialize(*this)) would build, without the bytes or a second
  /// copy of the events; the recorder is left empty.
  Recording take() &&;

 private:
  std::vector<std::unique_ptr<RecordedWorld>> worlds_;
  std::string pending_label_;
};

/// The calling thread's active recorder (nullptr = recording off).  Same
/// thread-scoping rules as trace::active_tracer.
Recorder* active_recorder() noexcept;
void install_recorder(Recorder* recorder) noexcept;

/// RAII install/uninstall, restoring the previous recorder.
class ScopedRecorder {
 public:
  explicit ScopedRecorder(Recorder* recorder);
  ~ScopedRecorder();
  ScopedRecorder(const ScopedRecorder&) = delete;
  ScopedRecorder& operator=(const ScopedRecorder&) = delete;

 private:
  Recorder* previous_;
};

}  // namespace hcs::replay
