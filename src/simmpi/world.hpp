// World: the simulated machine plus the MPI-like process runtime.
//
// A World owns the discrete-event simulation, the network model, one shared
// HardwareClock per time source, and a mailbox per rank.  Rank programs are
// coroutines created by launch(); run() drives the event loop to completion
// and reports deadlocks (ranks still blocked with an empty event queue).
//
// The simulation is sharded (conservative PDES, docs/parallel-simulation.md):
// ranks are partitioned into per-node-group shards, each with its own
// sim::Simulation (event queue + coroutine scheduler).  run() advances all
// shards concurrently inside conservative time windows bounded by the
// network's minimum inter-node latency; inter-node messages cross shards via
// per-shard outboxes drained in a deterministic merge order at window
// boundaries, and cross-node ping-pong bursts rendezvous there too.  In a
// window with events in two or more shards, the coordinating thread runs
// shard 0 and hands shards 1..K-1 to K-1 workers through a spin-then-park
// gate (sim::WindowGate).  A window in which only one shard has events runs
// on the coordinating thread while the workers stay parked; at --shards 1
// every window is such a lone window, so no worker thread ever starts.  The
// inter-node protocol is the same at every shard count, so the simulated
// timeline is bit-identical for any number of shards.
//
// The p2p_* and pingpong_burst members are the transport primitives used by
// Comm; user code goes through Comm and the collectives API.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "simmpi/failure.hpp"
#include "simmpi/message.hpp"
#include "simmpi/request.hpp"
#include "simmpi/network.hpp"
#include "topology/presets.hpp"
#include "trace/metrics.hpp"
#include "trace/tracer.hpp"
#include "vclock/clock.hpp"
#include "vclock/hardware_clock.hpp"

namespace hcs::replay {
class ReplayFeed;
struct Event;
struct RecordedWorld;
}  // namespace hcs::replay

namespace hcs::simmpi {

class World;
class Comm;

/// Per-rank execution context handed to rank programs.
class RankCtx {
 public:
  RankCtx(World& world, int rank);
  ~RankCtx();
  RankCtx(const RankCtx&) = delete;
  RankCtx& operator=(const RankCtx&) = delete;

  World& world() const noexcept { return *world_; }
  int rank() const noexcept { return rank_; }
  Comm& comm_world() noexcept { return *comm_world_; }
  vclock::ClockPtr base_clock() const;
  sim::Simulation& sim() const;

  /// Rebuilds the world communicator from scratch (fresh collective
  /// sequence numbers).  Used by the churn supervisor between incarnations:
  /// a restarted rank must not resume mid-sequence tags from its previous
  /// life.
  void reset_comm();

 private:
  World* world_;
  int rank_;
  std::unique_ptr<Comm> comm_world_;
};

class World {
 public:
  /// `fault_plan` (optional) activates deterministic fault injection for
  /// this World: a private fault::FaultInjector is seeded from (seed, plan
  /// seed), so identical (machine, seed, plan) triples reproduce bit-exactly
  /// regardless of how many trials run in parallel.  An empty plan leaves
  /// every code path identical to the fault-free model.
  ///
  /// `shards` splits the event loop into that many shards (clamped to
  /// [1, nodes]; shards never split a node, so intra-node fast paths stay
  /// single-threaded).  Once a window has events in two or more shards, run()
  /// starts a worker thread for each of shards 1..K-1 and runs shard 0
  /// itself.  Results are bit-identical for any value.
  World(topology::MachineConfig machine, std::uint64_t seed, fault::FaultPlan fault_plan = {},
        int shards = 1);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// The simulation advancing `rank`'s timeline.
  sim::Simulation& sim_of(int rank) noexcept {
    return *sims_[static_cast<std::size_t>(shard_of_rank(rank))];
  }
  const sim::Simulation& sim_of(int rank) const noexcept {
    return *sims_[static_cast<std::size_t>(shard_of_rank(rank))];
  }

  const topology::ClusterTopology& topo() const noexcept { return machine_.topo; }
  const topology::MachineConfig& machine() const noexcept { return machine_; }
  NetworkModel& network() noexcept { return network_; }
  int size() const noexcept { return machine_.topo.total_ranks(); }

  /// Number of event-loop shards (>= 1).
  int shards() const noexcept { return nshards_; }

  /// Shard that owns `rank` (its whole node lives there).
  int shard_of_rank(int rank) const noexcept {
    return shard_of_node_[static_cast<std::size_t>(
        node_of_rank_[static_cast<std::size_t>(rank)])];
  }

  /// Conservative-window lookahead: minimum time for any inter-node message
  /// to reach the destination NIC port (docs/parallel-simulation.md).
  double lookahead() const noexcept { return lookahead_; }

  /// Fault injector for this World; null when no fault plan was given.
  fault::FaultInjector* fault_injector() noexcept { return fault_.get(); }

  /// Failure detector for this World; null unless the fault plan contains a
  /// crash or crashlink fault (so crash-free runs take zero new branches).
  const FailureDetector* failure_detector() const noexcept { return detector_.get(); }

  /// Throws RankCrashed when the crash/churn model has `rank` down — every
  /// transport operation calls this on entry and after resuming.  Under a
  /// pure crash plan is_down is exactly `now >= crash_time`, so crash-only
  /// behaviour is unchanged; under churn a restarted incarnation runs
  /// again once its down interval ends.
  void check_crash(int rank) const {
    if (detector_ && fault_->is_down(rank, sim_of(rank).now())) {
      throw RankCrashed{rank, sim_of(rank).now()};
    }
  }

  /// Membership epoch at `now` (0 when no churn plan is active): the number
  /// of fired departures/arrivals.  Pure function of the fault plan, so
  /// every rank computes the same view without messages.
  std::uint64_t membership_epoch(sim::Time now) const noexcept {
    return fault_ ? fault_->membership_epoch(now) : 0;
  }

  /// Shared hardware clock of the rank's time source.  A sync result's clock
  /// holds it, so at()/at_exact() reads stay valid after the World is
  /// destroyed; now() reads this World's simulation and does not.
  vclock::ClockPtr base_clock(int rank) const;

  /// The identity member list {0, ..., size() - 1}, built once: every world
  /// communicator of this World shares it instead of holding a copy.
  const std::shared_ptr<const std::vector<int>>& world_members() const noexcept {
    return world_members_;
  }

  /// True when a Recorder section or a replay feed is attached.  Comm::split
  /// then exchanges real (color, key) payloads: a single-rank replay can
  /// learn its peers' colors only from the recorded messages.
  bool records_transport() const noexcept {
    return record_section_ != nullptr || replay_feed_ != nullptr;
  }

  /// Total events processed across all shards so far (bench reporting).
  std::uint64_t events_processed() const noexcept { return total_events(); }

  /// This World's coroutine-frame memory: the sum over its shards of each
  /// shard's frame-pool high-water mark of slab bytes.
  std::size_t frame_pool_peak_bytes() const noexcept;

  using RankFn = std::function<sim::Task<void>(RankCtx&)>;

  /// Spawns one process per rank running `fn`.
  void launch(const RankFn& fn);

  /// Drains all shards' event loops (windowed, concurrent when shards > 1);
  /// throws on process exceptions, event-budget overrun, or deadlock
  /// (blocked processes with every queue empty).
  void run(std::uint64_t max_events = 4'000'000'000ULL);

  /// launch + run in one call.
  void run_all(const RankFn& fn, std::uint64_t max_events = 4'000'000'000ULL);

  RankCtx& ctx(int rank);

  // --- transport primitives (used by Comm; not intended for user code) ---

  sim::Task<void> p2p_send(int src, int dst, std::int64_t tag, std::vector<double> data,
                           std::int64_t bytes);

  /// Nonblocking receive: posts the request (matching any already-arrived
  /// message) and returns immediately; complete with await_recv.
  RecvRequest p2p_irecv(int me, int src, std::int64_t tag);

  /// MPI_Wait analogue for a receive request.
  sim::Task<Message> await_recv(RecvRequest request);

  /// Bounded wait: completes the receive, or gives up at `deadline`
  /// (absolute sim time) and returns nullopt.  Throws RankCrashed if the
  /// receiving rank itself dies while blocked.  The fault-tolerant
  /// collectives build on this (Comm::recv_ft).
  sim::Task<std::optional<Message>> await_recv_until(RecvRequest request, sim::Time deadline);

  /// Nonblocking send: the message enters the network immediately; the
  /// request completes once the sender-side overhead has elapsed.
  SendRequest p2p_isend(int src, int dst, std::int64_t tag, std::vector<double> data,
                        std::int64_t bytes);

  /// MPI_Wait analogue for a send request.
  sim::Task<void> await_send(SendRequest request);

  /// Fast-path ping-pong burst between `me` and `partner` (DESIGN.md §4.3):
  /// both sides call this; per-exchange timestamps are synthesized from the
  /// same network distributions without per-message events.
  sim::Task<BurstResult> pingpong_burst(int me, int partner, bool i_am_client,
                                        vclock::Clock& my_clock, int nexchanges,
                                        std::int64_t bytes);

  // --- split tables (used by Comm::split; not intended for user code) ---

  /// One fault-free Comm::split in flight, keyed by the parent's context and
  /// split sequence number (world.cpp).
  struct SplitTable;

  /// A member's place after a split: the shared member list of its new
  /// communicator (null for color Comm::kUndefined) and its rank there.
  struct SplitPlacement {
    std::shared_ptr<const std::vector<int>> members;
    int rank = -1;
  };

  /// Posts parent rank `index`'s (color, key) to split `seq` of the
  /// `size`-member communicator with context `context`, and returns the
  /// split's table.
  std::shared_ptr<SplitTable> post_split(std::uint64_t context, std::uint64_t seq, int size,
                                         int index, int color, int key);

  /// Parent rank `index`'s placement; valid once every member has posted.
  /// The first caller builds the member lists of all colors in one sorted
  /// pass (`parent` maps parent ranks to world ranks); the last one frees
  /// the table.
  SplitPlacement take_split(SplitTable& table, const std::vector<int>& parent, int index);

  // --- record / replay (docs/record-replay.md) ---

  /// Switches this World into single-rank replay mode: launch() spawns only
  /// the feed's rank, and every transport operation is answered from (or
  /// verified against) `feed` instead of the simulated peers.  The World
  /// must be constructed with the same (machine, seed, fault plan) as the
  /// recorded one so its deterministic models (clock parameters, failure
  /// detector) match; it must be unsharded.  The caller owns the feed and
  /// the RecordedWorld behind it; both must outlive the World.
  void attach_replay(replay::ReplayFeed* feed);

  /// Noisy clock read for rank code, record/replay aware — use via
  /// replay::observed_now().  Plain clock.now() normally; additionally logged
  /// while a Recorder is installed; answered from the log during replay.
  double clock_read_hook(int rank, vclock::Clock& clock);

 private:
  /// A rank's one ping-pong burst slot.  A burst blocks like MPI_Sendrecv,
  /// so a rank has at most one in flight, and the slot holds its side from
  /// entry to return: the call's parameters, the waiter and crash-model
  /// timer while parked, and the result once paired.
  struct BurstSlot {
    enum class State : std::uint8_t {
      kIdle,     // no burst in flight
      kPending,  // cross-node, parked; the next window-boundary drain opens it
      kOpen,     // parked; pairable by the partner's call or the drain
      kPaired,   // paired; the caller resumes at its done time
    };
    State state = State::kIdle;
    bool is_client = false;
    int partner = -1;
    int nexchanges = 0;
    std::int64_t bytes = 0;
    vclock::Clock* clock = nullptr;
    sim::Time ready = 0.0;
    std::coroutine_handle<> waiter = nullptr;
    sim::TimerId timer = sim::kNoTimer;
    BurstResult result;
  };
  struct Mailbox {
    // Arrived, unmatched messages in arrival order.  A vector, not a deque:
    // it allocates nothing until its first message, and most ranks' stay
    // empty.
    std::vector<Message> unexpected;
    std::vector<RecvRequest> posted;  // irecvs (and blocking recvs) in post order
    // Channel repair, used only while network faults are active: messages
    // held back for in-order (FIFO) release.
    std::map<std::pair<int, std::uint64_t>, Message> held;
    BurstSlot burst;
  };
  // Channel sequence numbers of one rank, keyed by peer so that only the
  // channels in use cost memory.  Both maps belong to the rank's own shard:
  // it sends from there and receives there.
  struct ChannelSeqs {
    std::unordered_map<int, std::uint64_t> next_send;  // by destination
    std::unordered_map<int, std::uint64_t> expected;   // by source
  };
  // Adapter handed to the active tracer so spans recorded anywhere in the
  // process are stamped with the recording shard's simulated time.
  struct SimTimeSource final : trace::TimeSource {
    sim::Simulation* sim = nullptr;
    double trace_now() const override { return sim->now(); }
  };

  /// One inter-node message waiting in its sender shard's outbox: the sender
  /// already paid egress + wire (port_time is when it reaches the receiving
  /// NIC port, provably >= the end of the window it was sent in); ingress
  /// admission and delivery happen at the next window boundary, in
  /// (port_time, src, dst, order) merge order.
  struct IngressRecord {
    int src = -1;
    int dst = -1;
    sim::Time depart_ready = 0.0;  // metric baseline (hand-off to arrival)
    sim::Time port_time = 0.0;
    std::uint64_t order = 0;  // per-shard push index: deterministic tiebreak
    Message msg;
  };

  /// One scheduled message delivery: a callback event on the destination
  /// shard that hands `msg` to `dst`'s mailbox when it fires.
  struct Delivery final : sim::Callback {
    World* world = nullptr;
    int dst = -1;
    Message msg;
  };

  /// Shard-confined engine state (only the thread running the shard's window
  /// touches it; the coordinator drains it while workers are parked).
  struct ShardState {
    std::vector<IngressRecord> outbox;
    std::uint64_t outbox_seq = 0;
    std::vector<int> pending;  // ranks whose cross-node half awaits the drain
    // Delivery records of the messages bound for this shard's ranks.  The
    // deque owns every record the shard has used (stable addresses, freed
    // with the World, so a delivery an error dropped unfired does not
    // leak); the free list holds those not in flight.  A record is taken
    // where the delivery is scheduled and returned where it fires, both on
    // this shard's side of the window handoff.
    std::deque<Delivery> deliveries;
    std::vector<Delivery*> free_deliveries;
  };

  // Installs shard `s`'s tracer, metrics registry and frame pool on the
  // calling thread and restores the previous ones on exit.  Whoever runs
  // work on a shard's behalf holds one: launch, a worker, or the coordinator
  // in a lone window or a window-boundary drain.
  class ShardScope {
   public:
    ShardScope(const World& world, int s);
    ShardScope(const ShardScope&) = delete;
    ShardScope& operator=(const ShardScope&) = delete;

   private:
    trace::ScopedTracer tracer_;
    trace::ScopedMetrics metrics_;
    sim::detail::FramePool::Scope frames_;
  };

  BurstSlot& burst_slot(int rank) { return mailboxes_[static_cast<std::size_t>(rank)].burst; }
  /// Runs the burst between ranks `client` and `ref`, as their slots
  /// describe it, into `result`; returns when each side is done (client,
  /// reference).
  std::pair<sim::Time, sim::Time> synthesize_burst(int client, int ref, std::int64_t bytes,
                                                   BurstResult& result);
  /// The one burst pairing routine (world.cpp).
  std::pair<sim::Time, sim::Time> pair(int first, int second, sim::Time floor);
  /// Hands an arrived message to `dst`'s mailbox: channel repair under
  /// network faults, then match or enqueue.
  void deliver_now(int dst, Message msg);
  static void fire_delivery(sim::Callback& callback);  // a Delivery's event
  void match_or_enqueue(int dst, Message msg);
  void dispatch_message(int src, int dst, std::vector<double> data, std::int64_t bytes,
                        std::int64_t tag, sim::Time ready);
  void push_ingress(int src, int dst, sim::Time depart_ready, sim::Time port_time, Message msg);
  /// Delivers `msg` at `arrive` (after `dst`'s pause windows), unless the
  /// crash rule below loses it.
  void schedule_delivery(int dst, sim::Time arrive, Message msg);

  /// Runs `fn` once per up-period of a churning rank: delays to each
  /// scheduled (re)start, purges the mailbox and resets the communicator
  /// between incarnations, and records membership markers.
  sim::Task<void> churn_supervisor(RankFn fn, RankCtx& ctx);
  void purge_mailbox(int rank);
  void cancel_recv(const RecvRequest& request);
  struct RecvPark;  // await_recv's park/resolve step (world.cpp)
  // await_recv and await_recv_until without a replay feed: the one frame a
  // parked receive holds.
  sim::Task<Message> park_recv(RecvRequest request);
  sim::Task<std::optional<Message>> park_recv_until(RecvRequest request, sim::Time deadline);

  // --- record / replay internals (world.cpp, docs/record-replay.md) ---
  void record_recv_completion(const RecvRequest& request);
  sim::Task<Message> replay_recv(RecvRequest request);
  sim::Task<std::optional<Message>> replay_recv_until(RecvRequest request);
  sim::Task<BurstResult> replay_burst(int me, int partner, bool i_am_client);
  // The checked step shared by replay_recv and replay_burst.
  sim::Task<const replay::Event*> replay_next(int me, replay::Event want, std::string_view op);
  sim::Task<void> replay_starve(int me);  // crash at recorded time, or diverge

  // --- windowed engine (world_engine section of world.cpp) ---
  void drain_outboxes();          // ingress merge + delivery events
  void drain_burst_halves();      // cross-node rendezvous + synthesis
  bool serial_phase(std::uint64_t max_events);  // drains + next window; false = done
  void run_shard_window(int s);  // shard s's part of the window, in its ShardScope
  std::uint64_t total_events() const noexcept;
  std::string describe_blocked() const;  // deadlock report suffix
  void audit_finished_run();             // leftovers of a run that finished

  topology::MachineConfig machine_;
  int nshards_ = 1;
  double lookahead_ = 0.0;
  std::vector<int> node_of_rank_;   // rank -> node (cached topo.locate)
  std::vector<int> shard_of_node_;  // node -> shard (contiguous ranges)
  std::vector<std::unique_ptr<sim::Simulation>> sims_;  // one per shard
  NetworkModel network_;
  std::unique_ptr<fault::FaultInjector> fault_;
  std::unique_ptr<FailureDetector> detector_;  // only under crash/crashlink plans
  bool seq_tracking_ = false;            // assign/enforce channel sequence numbers
  std::vector<ChannelSeqs> channel_seqs_;  // per rank, when seq_tracking_

  // Observability: the parent tracer/registry are whatever was installed on
  // the constructing thread.  Each shard, at every shard count, gets a
  // private tracer and registry (the record paths are not thread-safe); they
  // are absorbed / merged into the parent in shard-index order by ~World.
  // ShardScope installs them around everything run for a shard, so rank code
  // and the network report there whatever is installed around run().  Trace
  // events and metric counts, minima and maxima are the same for any shard
  // count; histogram percentiles (merged per-shard sample reservoirs) and
  // sim.windows_parallel depend on the shard layout (docs/observability.md).
  trace::Tracer* parent_tracer_ = nullptr;
  trace::MetricsRegistry* parent_metrics_ = nullptr;
  std::vector<std::unique_ptr<trace::Tracer>> shard_tracers_;
  std::vector<std::unique_ptr<trace::MetricsRegistry>> shard_registries_;
  std::vector<std::unique_ptr<SimTimeSource>> shard_time_sources_;

  std::vector<std::shared_ptr<vclock::HardwareClock>> hw_clocks_;  // per time source
  std::vector<Mailbox> mailboxes_;
  std::vector<ShardState> shard_states_;            // per shard
  std::vector<std::unique_ptr<RankCtx>> ctxs_;
  std::shared_ptr<const std::vector<int>> world_members_;

  // Split tables of fault-free Comm::split.  Members on every shard thread
  // post and take concurrently, so split_mu_ guards the map and the
  // contents of every table in it.
  std::mutex split_mu_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::shared_ptr<SplitTable>> split_tables_;

  // Record / replay: when a replay::Recorder was installed on the
  // constructing thread, record_section_ is this World's section in it and
  // every rank-visible transport completion is appended there (per-rank
  // buffers, appended only from the owning shard's thread).  In replay mode
  // replay_feed_ serves the single surviving rank's recorded events.
  replay::RecordedWorld* record_section_ = nullptr;
  replay::ReplayFeed* replay_feed_ = nullptr;

  // Window-loop state shared between serial_phase and the worker loop.
  // window_end_ is the current window's end; in the serial phase, the end of
  // the window that just ran, which clamps drain_burst_halves' resumes.
  sim::Time window_end_ = 0.0;
  std::uint64_t bursts_clamped_ = 0;  // pairs the clamp delayed, this run
  std::vector<std::uint64_t> shard_caps_;  // per-shard lifetime event caps
  int lone_shard_ = -1;  // the window's only shard with events, or -1 if several
  // The drains' merge buffers, cleared with their capacity kept so the
  // windows of a run reuse them (and the shards' outboxes keep theirs).
  std::vector<IngressRecord> ingress_merge_;
  std::vector<int> halves_merge_;
  std::exception_ptr fatal_;
};

}  // namespace hcs::simmpi
