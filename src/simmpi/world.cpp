#include "simmpi/world.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <stdexcept>

#include "replay/feed.hpp"
#include "replay/record.hpp"
#include "sim/window_gate.hpp"
#include "simmpi/comm.hpp"

namespace hcs::simmpi {

namespace {
// The World's own metrics (trace::MetricHandle).
constinit trace::HistogramHandle g_rtt{"sync.rtt"};
constinit trace::CounterHandle g_pingpongs{"sync.pingpongs"};
constinit trace::HistogramHandle g_burst_retries{"sync.burst_retries", trace::MetricUnit::kNone};
constinit trace::CounterHandle g_exchanges_lost{"sync.exchanges_lost"};
constinit trace::CounterHandle g_dup_absorbed{"fault.net.dup_absorbed"};

// Resumes the awaiting coroutine at absolute time `when`.  schedule_at clamps
// past times to "now", so recorded or precomputed times resume exactly — a
// relative delay(when - now) could drift by an ulp, and by a different one
// on each shard layout.  NOTE: named awaiter on purpose (GCC 12
// temporary-awaiter bug).
struct ResumeAt {
  sim::Simulation* sim;
  sim::Time when;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { sim->schedule_at(when, h); }
  void await_resume() const noexcept {}
};

// Parks the caller as `*waiter` and, when `wake` is finite (the crash model's
// bound on the wait), arms `*timer` to resume it then.  Whichever resolves
// the wait first takes the waiter: wake_parked below, or the timer, after
// which the resumed caller finds its waiter still set.  NOTE: named awaiter
// on purpose (GCC 12 temporary-awaiter bug).
struct ParkUntil {
  sim::Simulation* sim;
  std::coroutine_handle<>* waiter;
  sim::TimerId* timer;
  sim::Time wake;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    *waiter = h;
    if (wake < sim::kTimeInfinity) *timer = sim->arm_timer(wake, h);
  }
  void await_resume() const noexcept {}
};

// Resolves a parked wait: resumes its waiter at `at` and cancels its timer.
void wake_parked(sim::Simulation& s, std::coroutine_handle<>& waiter, sim::TimerId& timer,
                 sim::Time at) {
  s.schedule_at(at, waiter);
  waiter = nullptr;
  if (timer != sim::kNoTimer) {
    s.cancel_timer(timer);
    timer = sim::kNoTimer;
  }
}
}  // namespace

// ---------------------------------------------------------------- RankCtx --

RankCtx::RankCtx(World& world, int rank)
    : world_(&world), rank_(rank), comm_world_(std::make_unique<Comm>(Comm::world_comm(world, rank))) {}

RankCtx::~RankCtx() = default;

void RankCtx::reset_comm() {
  comm_world_ = std::make_unique<Comm>(Comm::world_comm(*world_, rank_));
}

vclock::ClockPtr RankCtx::base_clock() const { return world_->base_clock(rank_); }

sim::Simulation& RankCtx::sim() const { return world_->sim_of(rank_); }

// ------------------------------------------------------------------ World --

World::World(topology::MachineConfig machine, std::uint64_t seed, fault::FaultPlan fault_plan,
             int shards)
    : machine_(std::move(machine)),
      network_(machine_.topo, machine_.net, seed ^ 0x9e3779b97f4a7c15ULL) {
  const int nodes = machine_.topo.nodes();
  nshards_ = std::clamp(shards, 1, nodes);
  lookahead_ = network_.min_inter_node_latency();

  // Contiguous node ranges per shard; shards never split a node, so every
  // intra-node structure (mailboxes, NIC state, hardware clocks, the burst
  // fast path) stays confined to one shard's thread.
  node_of_rank_.resize(static_cast<std::size_t>(size()));
  for (int r = 0; r < size(); ++r) {
    node_of_rank_[static_cast<std::size_t>(r)] = machine_.topo.locate(r).node;
  }
  shard_of_node_.resize(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    shard_of_node_[static_cast<std::size_t>(n)] =
        static_cast<int>((static_cast<std::int64_t>(n) * nshards_) / nodes);
  }

  sims_.reserve(static_cast<std::size_t>(nshards_));
  for (int s = 0; s < nshards_; ++s) sims_.push_back(std::make_unique<sim::Simulation>());
  shard_states_.resize(static_cast<std::size_t>(nshards_));

  // Hardware clocks: seed chain unchanged from the unsharded engine (clock
  // paths must not depend on the shard count).  Each clock reads "now" from
  // the simulation of the shard owning its ranks; a time source is at most
  // node-wide (topology.cpp), so it can never span shards.
  const int sources = machine_.topo.num_time_sources();
  std::vector<int> source_shard(static_cast<std::size_t>(sources), 0);
  for (int r = size() - 1; r >= 0; --r) {
    source_shard[static_cast<std::size_t>(machine_.topo.time_source_id(r))] = shard_of_rank(r);
  }
  hw_clocks_.reserve(static_cast<std::size_t>(sources));
  std::uint64_t sm = seed ^ 0xd1b54a32d192ed03ULL;
  for (int s = 0; s < sources; ++s) {
    hw_clocks_.push_back(std::make_shared<vclock::HardwareClock>(
        *sims_[static_cast<std::size_t>(source_shard[static_cast<std::size_t>(s)])],
        machine_.clocks, sim::splitmix64(sm)));
  }
  mailboxes_.resize(static_cast<std::size_t>(size()));
  {
    std::vector<int> identity(static_cast<std::size_t>(size()));
    for (int r = 0; r < size(); ++r) identity[static_cast<std::size_t>(r)] = r;
    world_members_ = std::make_shared<const std::vector<int>>(std::move(identity));
  }

  // Observability: the parent tracer/registry stay bound to the constructing
  // thread; every shard records into its own buffers, which ~World absorbs
  // in shard-index order (the record paths are not thread-safe).
  parent_tracer_ = trace::active_tracer();
  parent_metrics_ = trace::active_metrics();

  // Record/replay: a Recorder installed on the constructing thread gets one
  // section per World, keyed by everything needed to rebuild an identical
  // World for replay (docs/record-replay.md).  The section's per-rank
  // buffers are sized up front, so recording appends stay confined to each
  // rank's own shard thread.
  if (replay::Recorder* recorder = replay::active_recorder()) {
    replay::WorldInfo info;
    info.seed = seed;
    info.nranks = size();
    info.fault_seed = fault_plan.seed();
    info.machine = machine_.describe();
    if (!fault_plan.empty()) info.fault_plan = fault_plan.describe();
    record_section_ = &recorder->begin_world(std::move(info));
  }
  // Every World metric exists in the parent registry, fired or not.
  g_rtt.get();
  g_pingpongs.get();
  g_burst_retries.get();
  g_exchanges_lost.get();
  g_dup_absorbed.get();
  for (int s = 0; s < nshards_; ++s) {
    if (parent_tracer_) {
      auto ts = std::make_unique<SimTimeSource>();
      ts->sim = sims_[static_cast<std::size_t>(s)].get();
      auto tracer = std::make_unique<trace::Tracer>(parent_tracer_->ring_capacity());
      tracer->set_time_source(ts.get(), trace::TimeSourceKind::kSimTime);
      shard_time_sources_.push_back(std::move(ts));
      shard_tracers_.push_back(std::move(tracer));
    }
    if (parent_metrics_) shard_registries_.push_back(std::make_unique<trace::MetricsRegistry>());
  }

  if (!fault_plan.empty()) {
    // The injector's streams derive from the World seed (plus the plan's own
    // seed, mixed in by the injector), never from the network/clock RNGs:
    // fault decisions cannot perturb the fault-free random sequences.
    fault_ = std::make_unique<fault::FaultInjector>(fault_plan, seed ^ 0xa0761d6478bd642fULL,
                                                    size());
    network_.set_fault_injector(fault_.get());
    seq_tracking_ = fault_->net_active();
    if (fault_->crash_active()) {
      detector_ = std::make_unique<FailureDetector>(*fault_, network_);
    }
    if (seq_tracking_) channel_seqs_.resize(static_cast<std::size_t>(size()));
    for (const fault::ClockFault& cf : fault_->clock_faults()) {
      // A clock fault targets the rank's time source; co-located ranks that
      // share the source are affected together, as on a real node.
      auto& hw = hw_clocks_[static_cast<std::size_t>(machine_.topo.time_source_id(cf.rank))];
      if (cf.kind == fault::FaultKind::kClockStep) {
        hw->inject_step(cf.at, cf.delta);
      } else {
        hw->inject_frequency_jump(cf.at, cf.delta);
      }
    }
  }
}

World::~World() {
  // Fold per-shard observability into the parent exactly once, in shard
  // order, at every shard count.
  if (parent_tracer_) {
    for (const auto& t : shard_tracers_) parent_tracer_->absorb(*t);
  }
  if (parent_metrics_) {
    for (const auto& r : shard_registries_) parent_metrics_->merge_from(*r);
  }
}

vclock::ClockPtr World::base_clock(int rank) const {
  return hw_clocks_[static_cast<std::size_t>(machine_.topo.time_source_id(rank))];
}

RankCtx& World::ctx(int rank) {
  if (ctxs_.empty()) {
    ctxs_.reserve(static_cast<std::size_t>(size()));
    for (int r = 0; r < size(); ++r) ctxs_.push_back(std::make_unique<RankCtx>(*this, r));
  }
  return *ctxs_[static_cast<std::size_t>(rank)];
}

namespace {
// Under the crash model a victim rank unwinds via RankCrashed at its next
// transport operation; the guard absorbs it so the process finishes cleanly
// (no deadlock report, no result) while real errors still propagate.
sim::Task<void> run_rank_guarded(World::RankFn fn, RankCtx& ctx) {
  try {
    co_await fn(ctx);
  } catch (const RankCrashed&) {
  }
}
}  // namespace

void World::launch(const RankFn& fn) {
  // Single-rank replay runs only the target rank; every peer interaction is
  // answered from the recorded log instead of a simulated partner.
  const int first = replay_feed_ ? replay_feed_->rank() : 0;
  const int last = replay_feed_ ? first + 1 : size();
  const bool guard = detector_ != nullptr;
  for (int r = first; r < last; ++r) {
    // A rank runs until its first suspension right here: what it opens or
    // records then belongs to its shard, like the rest of its run.
    const ShardScope scope(*this, shard_of_rank(r));
    if (fault_ && fault_->has_churn(r)) {
      // Churning ranks run under a supervisor that restarts each scheduled
      // incarnation; pure-crash ranks keep the plain guarded path, so a
      // churn-free plan schedules exactly as before.
      sim_of(r).spawn(churn_supervisor(fn, ctx(r)));
    } else if (guard) {
      sim_of(r).spawn(run_rank_guarded(fn, ctx(r)));
    } else {
      sim_of(r).spawn(fn(ctx(r)));
    }
  }
}

void World::purge_mailbox(int rank) {
  Mailbox& mb = mailboxes_[static_cast<std::size_t>(rank)];
  mb.unexpected.clear();
  mb.posted.clear();
  // Held-back out-of-order messages from the previous life are stale too.
  // The expected sequence numbers are deliberately kept: sender-side
  // counters keep running across the restart, so channel FIFO repair stays
  // consistent.
  mb.held.clear();
}

// churn_supervisor lives in the record/replay section below.

// ----------------------------------------------------------------- engine --

std::uint64_t World::total_events() const noexcept {
  std::uint64_t total = 0;
  for (const auto& s : sims_) total += s->events_processed();
  return total;
}

std::size_t World::frame_pool_peak_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& s : sims_) total += s->frame_pool().peak_bytes();
  return total;
}

World::ShardScope::ShardScope(const World& world, int s)
    : tracer_(world.shard_tracers_.empty()
                  ? nullptr
                  : world.shard_tracers_[static_cast<std::size_t>(s)].get()),
      metrics_(world.shard_registries_.empty()
                   ? nullptr
                   : world.shard_registries_[static_cast<std::size_t>(s)].get()),
      frames_(world.sims_[static_cast<std::size_t>(s)]->frame_pool()) {}

// One window-boundary step on the coordinating thread (workers parked):
// collect errors, drain cross-shard traffic, pick the next window and the
// shards with events in it.  Returns false when the run is over (all queues
// empty, or a fatal error).
bool World::serial_phase(std::uint64_t max_events) {
  for (int s = 0; s < nshards_; ++s) {
    if (auto error = sims_[static_cast<std::size_t>(s)]->take_error()) {
      if (!fatal_) fatal_ = error;
    }
  }
  if (fatal_) return false;
  try {
    drain_outboxes();
    drain_burst_halves();
  } catch (...) {
    fatal_ = std::current_exception();
    return false;
  }
  sim::Time first = sim::kTimeInfinity;
  for (const auto& s : sims_) {
    if (!s->idle() && s->next_event_time() < first) first = s->next_event_time();
  }
  if (first == sim::kTimeInfinity) return false;
  const std::uint64_t done = total_events();
  if (done >= max_events) {
    fatal_ = std::make_exception_ptr(
        std::runtime_error("Simulation::run: event budget exceeded (" +
                           std::to_string(max_events) + " events)"));
    return false;
  }
  // Each shard is capped at its own lifetime count plus the global remainder;
  // concurrent windows can overshoot by at most (shards - 1) * remainder,
  // and with one shard the cap is exactly max_events, like the old engine.
  const std::uint64_t remaining = max_events - done;
  shard_caps_.resize(static_cast<std::size_t>(nshards_));
  for (int s = 0; s < nshards_; ++s) {
    shard_caps_[static_cast<std::size_t>(s)] =
        sims_[static_cast<std::size_t>(s)]->events_processed() + remaining;
  }
  window_end_ = first + lookahead_;
  if (!(window_end_ > first)) {
    // Degenerate lookahead (zero inter-node latency): single-event windows.
    window_end_ = std::nextafter(first, sim::kTimeInfinity);
  }
  // A shard with no event before the end does nothing in this window, and
  // nothing reaches it before the next boundary: cross-shard traffic waits
  // in the outboxes.  When only one shard has events, run() runs it alone.
  lone_shard_ = -1;
  for (int s = 0; s < nshards_; ++s) {
    const sim::Simulation& shard = *sims_[static_cast<std::size_t>(s)];
    if (shard.idle() || !(shard.next_event_time() < window_end_)) continue;
    if (lone_shard_ >= 0) {
      lone_shard_ = -1;
      break;
    }
    lone_shard_ = s;
  }
  return true;
}

void World::run_shard_window(int s) {
  const ShardScope scope(*this, s);
  const auto i = static_cast<std::size_t>(s);
  sims_[i]->run_window(window_end_, shard_caps_[i]);
}

// One window loop for every shard count.  A lone window runs on this thread.
// A window with events in two or more shards opens the gate for the workers
// of shards 1..K-1, runs shard 0 here, and closes the gate once they are
// done.  The workers start on the first such window, so a run whose windows
// are all lone (every run at --shards 1, nearly every JK run) starts no
// thread.  Either way the window is cut at the same end, so the timeline does
// not depend on which thread ran it.
void World::run(std::uint64_t max_events) {
  fatal_ = nullptr;
  bursts_clamped_ = 0;
  const std::uint64_t events_before = total_events();
  std::uint64_t windows = 0, parallel_windows = 0;
  std::optional<sim::WindowGate> workers;  // stops and joins them on every exit
  while (serial_phase(max_events)) {
    ++windows;
    if (lone_shard_ >= 0) {
      run_shard_window(lone_shard_);
      continue;
    }
    ++parallel_windows;
    if (!workers) workers.emplace(nshards_ - 1, [this](int i) { run_shard_window(i + 1); });
    workers->open();
    run_shard_window(0);
    workers->close();
  }
  workers.reset();
  HCS_METRIC_ADD("sim.windows", windows);
  HCS_METRIC_ADD("sim.windows_parallel", parallel_windows);
  HCS_METRIC_ADD("simmpi.burst_clamped", bursts_clamped_);
  if (fatal_) {
    auto error = fatal_;
    fatal_ = nullptr;
    std::rethrow_exception(error);
  }
  std::size_t spawned = 0, finished = 0;
  sim::Time virtual_now = 0.0;
  for (const auto& s : sims_) {
    spawned += s->processes_spawned();
    finished += s->processes_finished();
    virtual_now = std::max(virtual_now, s->now());
  }
  if (finished != spawned) {
    throw std::runtime_error("World::run: deadlock — " + std::to_string(spawned - finished) +
                             " of " + std::to_string(spawned) + " processes still blocked" +
                             describe_blocked());
  }
  audit_finished_run();
  HCS_METRIC_ADD("sim.events_processed", total_events() - events_before);
  HCS_METRIC_SET("sim.virtual_time_s", virtual_now);
  HCS_METRIC_SET("sim.processes_spawned", static_cast<double>(spawned));
}

void World::run_all(const RankFn& fn, std::uint64_t max_events) {
  launch(fn);
  run(max_events);
}

// -------------------------------------------------------------------- p2p --

void World::schedule_delivery(int dst, sim::Time arrive, Message msg) {
  if (fault_) arrive = fault_->release_time(dst, arrive);
  msg.arrived_at = arrive;
  if (detector_ && !fault_->crash_delivered(msg.src, dst, msg.sent_at, arrive)) {
    // The crash rule trumps the reliable transport's "final retransmission
    // always lands": a dead endpoint or severed link loses the message for
    // good, in-flight copies included.
    fault_->count_crash_drop();
    return;
  }
  ShardState& ss = shard_states_[static_cast<std::size_t>(shard_of_rank(dst))];
  Delivery* d = nullptr;
  if (ss.free_deliveries.empty()) {
    d = &ss.deliveries.emplace_back();
    d->fire = fire_delivery;
    d->world = this;
  } else {
    d = ss.free_deliveries.back();
    ss.free_deliveries.pop_back();
  }
  d->dst = dst;
  d->msg = std::move(msg);
  // The absolute arrival time: the scheduling shard's clock differs between
  // shard layouts, so a relative delay would round differently.
  sim_of(dst).schedule_callback(arrive, *d);
}

void World::fire_delivery(sim::Callback& callback) {
  Delivery& d = static_cast<Delivery&>(callback);
  World& world = *d.world;
  const int dst = d.dst;
  Message msg = std::move(d.msg);
  world.shard_states_[static_cast<std::size_t>(world.shard_of_rank(dst))]
      .free_deliveries.push_back(&d);
  world.deliver_now(dst, std::move(msg));
}

void World::push_ingress(int src, int dst, sim::Time depart_ready, sim::Time port_time,
                         Message msg) {
  ShardState& ss = shard_states_[static_cast<std::size_t>(shard_of_rank(src))];
  IngressRecord record;
  record.src = src;
  record.dst = dst;
  record.depart_ready = depart_ready;
  record.port_time = port_time;
  record.order = ss.outbox_seq++;
  record.msg = std::move(msg);
  ss.outbox.push_back(std::move(record));
}

// Window-boundary delivery of all parked inter-node messages, in a merge
// order that no shard layout can change: (port arrival, src, dst, sender
// push index).  Ingress NIC admission therefore evolves identically for any
// shard count — the crux of the determinism guarantee.  Each message is
// admitted in its destination shard's ShardScope.
void World::drain_outboxes() {
  std::vector<IngressRecord>& records = ingress_merge_;
  records.clear();
  for (auto& ss : shard_states_) {
    if (records.empty()) {
      records.swap(ss.outbox);  // the outbox takes the merge buffer's capacity
    } else {
      std::move(ss.outbox.begin(), ss.outbox.end(), std::back_inserter(records));
      ss.outbox.clear();
    }
  }
  if (records.empty()) return;
  std::sort(records.begin(), records.end(), [](const IngressRecord& a, const IngressRecord& b) {
    if (a.port_time != b.port_time) return a.port_time < b.port_time;
    if (a.src != b.src) return a.src < b.src;
    if (a.dst != b.dst) return a.dst < b.dst;
    return a.order < b.order;
  });
  for (IngressRecord& r : records) {
    const ShardScope scope(*this, shard_of_rank(r.dst));
    const sim::Time arrive =
        network_.ingress_admit(r.dst, r.msg.bytes, r.port_time, r.depart_ready);
    schedule_delivery(r.dst, arrive, std::move(r.msg));
  }
}

// Hands one message to the network: fault evaluation (drops absorbed by the
// network's bounded retransmission), pause-window translation at both
// endpoints, channel sequencing, and the optional duplicate copy.  Shared by
// p2p_send and p2p_isend.  Intra-node messages deliver directly inside the
// sender's shard; inter-node messages pay egress + wire now (sender-side
// state only) and park in the outbox for ingress at the window boundary —
// at every shard count, so the timeline never depends on the shard layout.
void World::dispatch_message(int src, int dst, std::vector<double> data, std::int64_t bytes,
                             std::int64_t tag, sim::Time ready) {
  if (fault_) ready = fault_->release_time(src, ready);
  if (record_section_ != nullptr || replay_feed_ != nullptr) {
    replay::Event ev{.kind = replay::EventKind::kSend, .peer = dst, .tag = tag, .bytes = bytes,
                     .time = ready, .digest = replay::payload_digest(data), .values = {}};
    if (replay_feed_ != nullptr) {
      // Replay: the message has no receiver to reach; verify the send
      // against the log (same spot record mode logs it, after pause
      // translation) and drop it.
      replay_feed_->expect(ev, "send");
      return;
    }
    record_section_->append(src, std::move(ev));
  }
  Message msg;
  msg.src = src;
  msg.tag = tag;
  msg.data = std::move(data);
  msg.bytes = bytes;
  msg.sent_at = ready;
  if (fault_ && fault_->churn_active()) msg.view = fault_->membership_epoch(ready);
  if (seq_tracking_) {
    msg.seq = channel_seqs_[static_cast<std::size_t>(src)].next_send[dst]++;
  }
  DeliveryFaults df;
  if (node_of_rank_[static_cast<std::size_t>(src)] != node_of_rank_[static_cast<std::size_t>(dst)]) {
    const sim::Time port = network_.transit_time(src, dst, bytes, ready,
                                                 seq_tracking_ ? &df : nullptr);
    if (df.duplicate) {
      // The second copy rides the network fault-blind (no recursive faults)
      // and keeps the original sequence number, so the receiving mailbox
      // absorbs whichever copy arrives second.
      Message copy = msg;
      const sim::Time dup_port = network_.transit_time(src, dst, bytes, ready);
      push_ingress(src, dst, ready, dup_port, std::move(copy));
    }
    push_ingress(src, dst, ready, port, std::move(msg));
    return;
  }
  // Intra-node: the destination is in the sender's shard (shards don't
  // split nodes), so the message is delivered from here.
  const sim::Time arrive =
      network_.deliver_time(src, dst, bytes, ready, seq_tracking_ ? &df : nullptr);
  if (df.duplicate) schedule_delivery(dst, network_.deliver_time(src, dst, bytes, ready), msg);
  schedule_delivery(dst, arrive, std::move(msg));
}

sim::Task<void> World::p2p_send(int src, int dst, std::int64_t tag, std::vector<double> data,
                                std::int64_t bytes) {
  if (dst < 0 || dst >= size()) throw std::out_of_range("p2p_send: bad destination rank");
  check_crash(src);
  if (bytes <= 0) bytes = static_cast<std::int64_t>(data.size() * sizeof(double));
  if (bytes <= 0) bytes = 8;
  sim::Simulation& s = sim_of(src);
  co_await s.delay(network_.send_overhead());
  check_crash(src);  // a crash inside the send overhead kills the message too
  dispatch_message(src, dst, std::move(data), bytes, tag, s.now());
}

void World::deliver_now(int dst, Message msg) {
  if (!seq_tracking_) {
    match_or_enqueue(dst, std::move(msg));
    return;
  }
  // Channel repair: absorb duplicates and hold back out-of-order messages so
  // the MPI layer keeps its per-channel FIFO guarantee under fault plans
  // that can reorder deliveries (tested in tests/fault/).
  Mailbox& mb = mailboxes_[static_cast<std::size_t>(dst)];
  std::uint64_t& expected = channel_seqs_[static_cast<std::size_t>(dst)].expected[msg.src];
  if (msg.seq < expected) {
    if (trace::Counter* m = g_dup_absorbed.get()) m->inc();
    return;
  }
  if (msg.seq > expected) {
    if (!mb.held.emplace(std::make_pair(msg.src, msg.seq), std::move(msg)).second) {
      if (trace::Counter* m = g_dup_absorbed.get()) m->inc();
    }
    return;
  }
  const int src = msg.src;
  match_or_enqueue(dst, std::move(msg));
  ++expected;
  for (auto it = mb.held.find({src, expected}); it != mb.held.end();
       it = mb.held.find({src, expected})) {
    Message next = std::move(it->second);
    mb.held.erase(it);
    match_or_enqueue(dst, std::move(next));
    ++expected;
  }
}

void World::match_or_enqueue(int dst, Message msg) {
  Mailbox& mb = mailboxes_[static_cast<std::size_t>(dst)];
  const auto it = std::find_if(mb.posted.begin(), mb.posted.end(), [&](const RecvRequest& r) {
    return r->src == msg.src && r->tag == msg.tag;
  });
  if (it == mb.posted.end()) {
    mb.unexpected.push_back(std::move(msg));
    return;
  }
  const RecvRequest request = *it;
  mb.posted.erase(it);
  request->msg = std::move(msg);
  request->complete = true;
  if (request->waiter) {
    sim::Simulation& s = sim_of(dst);
    wake_parked(s, request->waiter, request->timer, s.now());
  }
}

RecvRequest World::p2p_irecv(int me, int src, std::int64_t tag) {
  Mailbox& mb = mailboxes_[static_cast<std::size_t>(me)];
  auto request = std::make_shared<RecvState>();
  request->src = src;
  request->tag = tag;
  request->owner = me;
  const auto it = std::find_if(mb.unexpected.begin(), mb.unexpected.end(), [&](const Message& m) {
    return m.src == src && m.tag == tag;
  });
  if (it != mb.unexpected.end()) {
    request->msg = std::move(*it);
    mb.unexpected.erase(it);
    request->complete = true;
    return request;
  }
  mb.posted.push_back(request);
  return request;
}

void World::cancel_recv(const RecvRequest& request) {
  if (request->owner < 0) return;
  Mailbox& mb = mailboxes_[static_cast<std::size_t>(request->owner)];
  const auto it = std::find(mb.posted.begin(), mb.posted.end(), request);
  if (it != mb.posted.end()) mb.posted.erase(it);
}

// Suspends await_recv(_until)'s own frame until the request completes or,
// under the crash model, its timer fires: at the owner's own crash or at
// `deadline` (absolute; kTimeInfinity means "wait for the message"),
// whichever comes first.  A match cancels the timer; a timer that fires
// resumes the waiter, which resolves the request here.  NOTE: named awaiter
// on purpose (GCC 12 temporary-awaiter bug).
struct World::RecvPark {
  World* world;
  const RecvRequest& request;
  sim::Time deadline;
  sim::Time own_crash = sim::kTimeInfinity;

  bool await_ready() {
    if (request->complete) return true;
    if (!world->detector_) return false;
    const sim::Time now = world->sim_of(request->owner).now();
    own_crash = world->fault_->next_down(request->owner, now);
    if (now < own_crash && now < deadline) return false;
    (now >= own_crash ? request->owner_crashed : request->timed_out) = true;
    world->cancel_recv(request);
    return true;
  }
  void await_suspend(std::coroutine_handle<> h) {
    // No crash model: the message always comes, so no timer.
    const sim::Time wake = world->detector_ ? std::min(own_crash, deadline) : sim::kTimeInfinity;
    ParkUntil{&world->sim_of(request->owner), &request->waiter, &request->timer, wake}
        .await_suspend(h);
  }
  void await_resume() {
    if (!request->waiter) return;  // completed, resolved at once, or matched
    request->waiter = nullptr;
    request->timer = sim::kNoTimer;
    const sim::Time now = world->sim_of(request->owner).now();
    (now >= own_crash ? request->owner_crashed : request->timed_out) = true;
    world->cancel_recv(request);
  }
};

sim::Task<Message> World::await_recv(RecvRequest request) {
  if (replay_feed_) return replay_recv(std::move(request));
  return park_recv(std::move(request));
}

sim::Task<Message> World::park_recv(RecvRequest request) {
  // Even a plain receive gets a bound under the crash model: blocking on a
  // peer the detector has declared dead is turned into a loud error (and
  // the liveness net turns any remaining cross-wait into one too) instead
  // of a silent world deadlock.
  sim::Simulation& s = sim_of(request->owner);
  sim::Time deadline = sim::kTimeInfinity;
  if (detector_ && !request->complete && request->src >= 0 && request->owner >= 0) {
    deadline = std::min(detector_->detect_time_after(request->owner, request->src, s.now()),
                        s.now() + kLivenessTimeout);
  }
  RecvPark park{this, request, deadline};
  co_await park;
  if (request->owner_crashed) throw RankCrashed{request->owner, s.now()};
  if (request->timed_out) {
    throw std::runtime_error("recv on rank " + std::to_string(request->owner) + " from rank " +
                             std::to_string(request->src) +
                             " abandoned: peer declared dead (use the fault-tolerant receive "
                             "path for quorum collectives)");
  }
  co_await s.delay(network_.recv_overhead());
  record_recv_completion(request);
  co_return std::move(request->msg);
}

sim::Task<std::optional<Message>> World::await_recv_until(RecvRequest request,
                                                          sim::Time deadline) {
  if (replay_feed_) return replay_recv_until(std::move(request));
  return park_recv_until(std::move(request), deadline);
}

sim::Task<std::optional<Message>> World::park_recv_until(RecvRequest request,
                                                         sim::Time deadline) {
  sim::Simulation& s = sim_of(request->owner);
  RecvPark park{this, request, deadline};
  co_await park;
  if (request->owner_crashed) throw RankCrashed{request->owner, s.now()};
  if (request->timed_out) {
    if (record_section_ != nullptr) {
      record_section_->append(request->owner,
                              {.kind = replay::EventKind::kRecvTimeout, .peer = request->src,
                               .tag = request->tag, .time = s.now(), .values = {}});
    }
    co_return std::nullopt;
  }
  co_await s.delay(network_.recv_overhead());
  record_recv_completion(request);
  co_return std::move(request->msg);
}

SendRequest World::p2p_isend(int src, int dst, std::int64_t tag, std::vector<double> data,
                             std::int64_t bytes) {
  if (dst < 0 || dst >= size()) throw std::out_of_range("p2p_isend: bad destination rank");
  check_crash(src);
  if (bytes <= 0) bytes = static_cast<std::int64_t>(data.size() * sizeof(double));
  if (bytes <= 0) bytes = 8;
  auto request = std::make_shared<SendState>();
  request->owner = src;
  // The NIC takes over immediately; the rank's own overhead marks when the
  // send buffer is reusable (MPI_Wait on the isend).
  request->complete_at = sim_of(src).now() + network_.send_overhead();
  dispatch_message(src, dst, std::move(data), bytes, tag, request->complete_at);
  return request;
}

sim::Task<void> World::await_send(SendRequest request) {
  sim::Simulation& s = request->owner >= 0 ? sim_of(request->owner) : *sims_[0];
  const sim::Time now = s.now();
  if (request->complete_at > now) co_await s.delay(request->complete_at - now);
}

// ------------------------------------------------------------------ burst --

std::pair<sim::Time, sim::Time> World::synthesize_burst(int client_rank, int ref_rank,
                                                       std::int64_t bytes, BurstResult& result) {
  // Attempts per exchange under an active fault plan: 1 original +
  // (kMaxPingAttempts - 1) retries; an exchange still unanswered after that
  // is abandoned and reported via BurstResult::lost (the sync layer marks
  // the rank degraded rather than hanging).
  constexpr int kMaxPingAttempts = 3;
  constexpr double kPingTimeoutFactor = 10.0;  // of the expected round-trip time

  const BurstSlot& client = burst_slot(client_rank);
  const BurstSlot& ref = burst_slot(ref_rank);
  trace::HistogramMetric* rtt = g_rtt.get();
  const double o_s = network_.send_overhead();
  const double o_r = network_.recv_overhead();
  sim::Time tc = client.ready;  // client's process-time cursor
  sim::Time tr = ref.ready;     // reference's process-time cursor
  const bool faulty = fault_ && fault_->net_active();
  const bool pausing = fault_ && fault_->pause_active();
  const bool crashy = detector_ != nullptr;
  // Crash-era bounds for this pair: the client stops once it would run past
  // its own crash time, and gives up on the whole burst once its detector
  // declares the reference dead (individual pings obey the uniform
  // crash-delivery rule below).  Every message of the burst is sent at or
  // after client.ready, so one that arrives before the pair's liveness
  // horizon is delivered without consulting the exact rule.
  sim::Time client_crash = sim::kTimeInfinity;
  sim::Time abandon_at = sim::kTimeInfinity;
  sim::Time horizon = sim::kTimeInfinity;
  if (crashy) {
    client_crash = fault_->next_down(client_rank, client.ready);
    abandon_at = detector_->detect_time_after(client_rank, ref_rank, client.ready);
    horizon = fault_->live_until(client_rank, ref_rank, client.ready);
  }
  const auto delivered = [&](int src, int dst, sim::Time send, sim::Time arrive) {
    return !crashy || arrive < horizon || fault_->crash_delivered(src, dst, send, arrive);
  };
  const BurstLeg ping_leg = network_.burst_leg(client_rank, ref_rank);
  const BurstLeg pong_leg = network_.burst_leg(ref_rank, client_rank);
  const double timeout =
      kPingTimeoutFactor *
      (2.0 * network_.expected_delay(ping_leg.level, bytes) + 2.0 * (o_s + o_r));
  result.requested = client.nexchanges;
  result.samples.reserve(static_cast<std::size_t>(client.nexchanges));
  bool aborted = false;
  for (int i = 0; i < client.nexchanges && !aborted; ++i) {
    for (int attempt = 0;; ++attempt) {
      if (crashy && (tc >= client_crash || tc >= abandon_at)) {
        // Dead client, or reference declared dead: this exchange and every
        // remaining one are lost; the waiter resolves the crash on resume.
        result.lost += client.nexchanges - i;
        aborted = true;
        break;
      }
      if (pausing) tc = fault_->release_time(client_rank, tc);
      const sim::Time attempt_start = tc;
      // The timeout guards against message loss, not partner lateness: the
      // reference may legitimately enter the burst long after the client
      // (Alg. 6 sleeps wait_time between rounds; serial schedules like JK
      // make client j wait for j-1 predecessors), so the deadline only
      // starts once both peers could be exchanging messages.
      const sim::Time deadline = std::max(attempt_start, ref.ready) + timeout;
      PingSample s;
      s.client_send = client.clock->at(tc);
      fault::NetFaultDecision ping_fd;
      const sim::Time arrive_ref =
          network_.deliver_leg(ping_leg, bytes, tc + o_s, faulty ? &ping_fd : nullptr);
      const bool timed_out = ping_fd.drop || !delivered(client_rank, ref_rank, tc, arrive_ref);
      if (!timed_out) {
        sim::Time stamp_time = std::max(arrive_ref, tr) + o_r;
        if (pausing) stamp_time = fault_->release_time(ref_rank, stamp_time);
        s.ref_reply = ref.clock->at(stamp_time);
        const sim::Time reply_depart = stamp_time + o_s;
        tr = reply_depart;  // the reference served this ping whether or not the pong survives
        fault::NetFaultDecision pong_fd;
        const sim::Time arrive_client =
            network_.deliver_leg(pong_leg, bytes, reply_depart, faulty ? &pong_fd : nullptr);
        // `faulty` gate: fault-free this branch must be taken unconditionally
        // so the synthesized schedule stays bit-identical to the seed model.
        // The crash rule also covers the reference dying mid-service: a
        // reply departing after its crash necessarily arrives after it.
        // Otherwise the pong was lost, or it arrived after the client gave up.
        if (!pong_fd.drop && !(faulty && arrive_client + o_r > deadline) &&
            delivered(ref_rank, client_rank, reply_depart, arrive_client)) {
          const sim::Time recv_time = arrive_client + o_r;
          s.client_recv = client.clock->at(recv_time);
          result.samples.push_back(s);
          if (rtt) rtt->observe(recv_time - attempt_start);
          tc = recv_time;
          break;
        }
      }
      tc = deadline;  // client resumes at its timeout deadline
      if (attempt + 1 >= kMaxPingAttempts) {
        ++result.lost;
        break;
      }
      ++result.retries;
    }
  }
  if (rtt) {
    g_pingpongs.get()->inc(static_cast<std::uint64_t>(client.nexchanges));
    if (faulty) {
      g_burst_retries.get()->observe(result.retries);
      if (result.lost > 0) g_exchanges_lost.get()->inc(static_cast<std::uint64_t>(result.lost));
    }
  }
  if (trace::Tracer* tracer = trace::active_tracer()) {
    // Explicit timestamps: the burst is synthesized, so "now" would misplace
    // it.  This span is where HCA3 spends its RTT budget.
    tracer->record_complete(client_rank, trace::Category::kNet, "pingpong_burst",
                            client.ready, tc - client.ready, client.nexchanges);
  }
  return {tc, tr};
}

// Pairs the parked half of rank `first` with the half of its partner
// `second`: a parked half too (the window-boundary drain), or the calling
// partner itself, which pairs inline and has no waiter.  Checks that the two
// calls match, synthesizes the burst into both slots, and resumes every
// parked caller no earlier than `floor`.  Returns when each side is done
// (first, second), before the floor.
std::pair<sim::Time, sim::Time> World::pair(int first, int second, sim::Time floor) {
  BurstSlot& a = burst_slot(first);
  BurstSlot& b = burst_slot(second);
  if (a.nexchanges != b.nexchanges || a.is_client == b.is_client) {
    throw std::logic_error("pingpong_burst: mismatched burst call between partners");
  }
  const auto [client_done, ref_done] = a.is_client
                                           ? synthesize_burst(first, second, a.bytes, a.result)
                                           : synthesize_burst(second, first, a.bytes, a.result);
  const sim::Time first_done = a.is_client ? client_done : ref_done;
  const sim::Time second_done = a.is_client ? ref_done : client_done;
  a.state = b.state = BurstSlot::State::kPaired;
  b.result = a.result;
  wake_parked(sim_of(first), a.waiter, a.timer, std::max(first_done, floor));
  if (b.waiter) wake_parked(sim_of(second), b.waiter, b.timer, std::max(second_done, floor));
  return {first_done, second_done};
}

// Every burst pairs through pair(), and each rank's side lives in its one
// burst slot.  A caller whose intra-node partner is already parked with it
// as the partner pairs inline: no timer.  Any other caller parks, with one
// timer under the crash model: intra-node open at once, cross-node pending
// until the window-boundary drain opens it.  The cross-node rendezvous runs
// at every shard count (including 1), so pairing and synthesis order never
// depend on the shard layout.
sim::Task<BurstResult> World::pingpong_burst(int me, int partner, bool i_am_client,
                                             vclock::Clock& my_clock, int nexchanges,
                                             std::int64_t bytes) {
  if (nexchanges < 1) throw std::invalid_argument("pingpong_burst: nexchanges must be >= 1");
  if (me == partner) throw std::invalid_argument("pingpong_burst: self ping-pong");
  check_crash(me);
  if (replay_feed_) co_return co_await replay_burst(me, partner, i_am_client);
  BurstSlot& slot = burst_slot(me);
  if (slot.state != BurstSlot::State::kIdle) {
    throw std::logic_error("pingpong_burst: rank " + std::to_string(me) +
                           " entered a second burst while one is in flight");
  }
  sim::Simulation& s = sim_of(me);
  slot.is_client = i_am_client;
  slot.partner = partner;
  slot.nexchanges = nexchanges;
  slot.bytes = bytes;
  slot.clock = &my_clock;
  slot.ready = s.now();
  const bool local = node_of_rank_[static_cast<std::size_t>(me)] ==
                     node_of_rank_[static_cast<std::size_t>(partner)];
  const BurstSlot& other = burst_slot(partner);
  if (local && other.state == BurstSlot::State::kOpen && other.partner == me) {
    ResumeAt resume{&s, pair(partner, me, 0.0).second};
    co_await resume;
  } else {
    const sim::Time partner_dead =
        detector_ ? detector_->detect_time_after(me, partner, s.now()) : sim::kTimeInfinity;
    if (partner_dead <= s.now()) {
      // Partner already declared dead: resolve as fully lost without
      // suspending.
      slot.result.requested = nexchanges;
      slot.result.lost = nexchanges;
      fault_->count_crash_drop();
    } else {
      std::vector<int>& pending =
          shard_states_[static_cast<std::size_t>(shard_of_rank(me))].pending;
      if (local) {
        slot.state = BurstSlot::State::kOpen;
      } else {
        slot.state = BurstSlot::State::kPending;
        pending.push_back(me);
      }
      // check_crash above guarantees now < own crash time, so the timer is
      // due strictly in the future.
      ParkUntil park{&s, &slot.waiter, &slot.timer,
                     detector_ ? std::min(fault_->next_down(me, s.now()), partner_dead)
                               : sim::kTimeInfinity};
      co_await park;
      if (slot.waiter) {
        // The timer won: this caller crashes, or its partner is declared
        // dead, before the two paired.  The burst is fully lost, and the
        // half leaves the drain's list now, so nothing pairs it later.
        if (slot.state == BurstSlot::State::kPending) {
          pending.erase(std::find(pending.begin(), pending.end(), me));
        }
        slot.waiter = nullptr;
        slot.timer = sim::kNoTimer;
        slot.result.requested = nexchanges;
        slot.result.lost = nexchanges;
        fault_->count_crash_drop();
      }
    }
  }
  // Moved, not copied, and the slot left empty: a copy would keep every
  // rank's last samples alive.
  BurstResult result = std::exchange(slot.result, {});
  slot.state = BurstSlot::State::kIdle;
  check_crash(me);
  if (record_section_ != nullptr) {
    // Recorded at the caller's resume point (its own shard thread, at the
    // clamped done time — both shard-count-invariant), never from the
    // coordinator's rendezvous drain.
    std::vector<double> values = replay::encode_burst(result);
    record_section_->append(me, {.kind = replay::EventKind::kBurst,
                                 .flags = static_cast<std::uint8_t>(i_am_client),
                                 .peer = partner, .time = s.now(),
                                 .digest = replay::payload_digest(values),
                                 .values = std::move(values)});
  }
  co_return result;
}

// Window-boundary rendezvous for cross-node bursts.  The window's pending
// halves are visited in (lower rank, higher rank, client first) order; each
// pairs with its partner's open half if there is one, the open half going
// first, and opens otherwise.  A half whose timer fired left the list at
// once, so the timer wins within its window (its firing time and the window
// boundaries are both shard-count-invariant, so which one wins never depends
// on the layout).  Synthesis runs under the client shard's observability
// context, and both callers resume no earlier than the end of the window
// just finished.
void World::drain_burst_halves() {
  std::vector<int>& halves = halves_merge_;
  halves.clear();
  for (auto& ss : shard_states_) {
    halves.insert(halves.end(), ss.pending.begin(), ss.pending.end());
    ss.pending.clear();
  }
  if (halves.empty()) return;
  std::sort(halves.begin(), halves.end(), [this](int a, int b) {
    const BurstSlot& sa = burst_slot(a);
    const BurstSlot& sb = burst_slot(b);
    const auto ka = std::minmax(a, sa.partner);
    const auto kb = std::minmax(b, sb.partner);
    if (ka != kb) return ka < kb;
    return sa.is_client && !sb.is_client;
  });
  for (const int rank : halves) {
    BurstSlot& half = burst_slot(rank);
    const int partner = half.partner;
    const BurstSlot& other = burst_slot(partner);
    if (other.state != BurstSlot::State::kOpen || other.partner != rank) {
      half.state = BurstSlot::State::kOpen;
      continue;
    }
    const ShardScope scope(*this, shard_of_rank(half.is_client ? rank : partner));
    // Resumes clamp to the end of the window that just ran: a reference
    // whose service finished early may not re-enter its shard mid-window.
    // The clamp time is itself shard-count-invariant, so so are the resumes,
    // and so is simmpi.burst_clamped, which counts the pairs it delayed.
    const auto [first_done, second_done] = pair(partner, rank, window_end_);
    if (std::min(first_done, second_done) < window_end_) ++bursts_clamped_;
  }
}

// Names the ranks a deadlock left suspended and what each waits for: a
// receive still posted with a waiter, or the first half of a ping-pong
// burst whose partner never came.  The first kMaxListed in rank order, then
// a count of the rest.
std::string World::describe_blocked() const {
  constexpr std::size_t kMaxListed = 8;
  std::vector<std::pair<int, std::string>> waits;
  for (int r = 0; r < size(); ++r) {
    const Mailbox& mb = mailboxes_[static_cast<std::size_t>(r)];
    for (const RecvRequest& req : mb.posted) {
      if (!req->waiter) continue;
      char tag[24];
      std::snprintf(tag, sizeof(tag), "%#llx", static_cast<unsigned long long>(req->tag));
      waits.emplace_back(r, "recv(src " + std::to_string(req->src) + ", tag " + tag + ")");
    }
    if (mb.burst.waiter) {
      waits.emplace_back(r, "pingpong_burst(partner " + std::to_string(mb.burst.partner) + ")");
    }
  }
  if (waits.empty()) return "";
  std::string out = ":";
  for (std::size_t i = 0; i < waits.size() && i < kMaxListed; ++i) {
    out += (i == 0 ? " rank " : "; rank ") + std::to_string(waits[i].first) + " waits on " +
           waits[i].second;
  }
  if (waits.size() > kMaxListed) {
    out += "; and " + std::to_string(waits.size() - kMaxListed) + " more";
  }
  return out;
}

// Audit of a run whose every process finished.  Nothing may still wait: an
// armed timer or a parked half left now is an engine bug.  Messages left in
// an `unexpected` queue and receives still posted are a protocol's business
// (a crashed rank's mailbox, an irecv never awaited), so they are counted,
// not raised.
void World::audit_finished_run() {
  std::uint64_t unexpected = 0;
  std::uint64_t posted = 0;
  for (const Mailbox& mb : mailboxes_) {
    unexpected += mb.unexpected.size();
    posted += mb.posted.size();
    for (const RecvRequest& req : mb.posted) {
      if (req->timer != sim::kNoTimer) {
        throw std::logic_error("World::run: finished with a timer armed for rank " +
                               std::to_string(req->owner) + "'s receive");
      }
    }
    if (mb.burst.state != BurstSlot::State::kIdle) {
      throw std::logic_error("World::run: finished with a ping-pong half still parked");
    }
  }
  HCS_METRIC_ADD("simmpi.unmatched.unexpected", unexpected);
  HCS_METRIC_ADD("simmpi.unmatched.posted", posted);
}

// ----------------------------------------------------------- split tables --
//
// A fault-free Comm::split still runs its Bruck allgather (same rounds, tags
// and wire bytes), but the (color, key) pairs travel through one table per
// split instead of the messages, so no rank ever holds all 2p values.  The
// allgather is what makes the table complete: a rank finishes it only after
// every member's first send, and each member posts before that send.

struct World::SplitTable {
  struct Entry {
    int color = 0;
    int key = 0;
    int group = -1;  // index into groups; -1 for Comm::kUndefined
    int rank = -1;   // rank in that group
  };
  std::pair<std::uint64_t, std::uint64_t> id;  // (parent context, split sequence)
  std::vector<Entry> entries;                   // by parent rank
  std::vector<std::shared_ptr<const std::vector<int>>> groups;  // built by the first taker
  bool built = false;  // every member has posted, and one has taken
  int taken = 0;
};

std::shared_ptr<World::SplitTable> World::post_split(std::uint64_t context, std::uint64_t seq,
                                                     int size, int index, int color, int key) {
  const std::lock_guard<std::mutex> lock(split_mu_);
  std::shared_ptr<SplitTable>& slot = split_tables_[{context, seq}];
  // Posting to a built table means its split is over for this member, so
  // this is a later split of a communicator with an equal context and
  // sequence (a recreated world or view communicator): it gets a fresh
  // table, while the old one lives on in its remaining takers' hands.
  if (!slot || slot->built) {
    slot = std::make_shared<SplitTable>();
    slot->id = {context, seq};
    slot->entries.resize(static_cast<std::size_t>(size));
  } else if (slot->entries.size() != static_cast<std::size_t>(size)) {
    throw std::logic_error("Comm::split: communicators of different sizes share a context");
  }
  SplitTable::Entry& e = slot->entries[static_cast<std::size_t>(index)];
  e.color = color;
  e.key = key;
  return slot;
}

World::SplitPlacement World::take_split(SplitTable& table, const std::vector<int>& parent,
                                        int index) {
  const std::lock_guard<std::mutex> lock(split_mu_);
  std::vector<SplitTable::Entry>& entries = table.entries;
  if (!table.built) {
    // One sort by (color, key, parent rank) orders every group at once, in
    // MPI_Comm_split's rank order; each run of one color is a group.
    std::vector<int> order;
    order.reserve(entries.size());
    for (std::size_t r = 0; r < entries.size(); ++r) {
      if (entries[r].color != Comm::kUndefined) order.push_back(static_cast<int>(r));
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const SplitTable::Entry& ea = entries[static_cast<std::size_t>(a)];
      const SplitTable::Entry& eb = entries[static_cast<std::size_t>(b)];
      if (ea.color != eb.color) return ea.color < eb.color;
      if (ea.key != eb.key) return ea.key < eb.key;
      return a < b;
    });
    for (std::size_t i = 0; i < order.size();) {
      const int color = entries[static_cast<std::size_t>(order[i])].color;
      auto members = std::make_shared<std::vector<int>>();
      for (; i < order.size() && entries[static_cast<std::size_t>(order[i])].color == color; ++i) {
        SplitTable::Entry& e = entries[static_cast<std::size_t>(order[i])];
        e.group = static_cast<int>(table.groups.size());
        e.rank = static_cast<int>(members->size());
        members->push_back(parent[static_cast<std::size_t>(order[i])]);
      }
      table.groups.push_back(std::move(members));
    }
    table.built = true;
  }
  const SplitTable::Entry& mine = entries[static_cast<std::size_t>(index)];
  SplitPlacement out;
  if (mine.group >= 0) {
    out.members = table.groups[static_cast<std::size_t>(mine.group)];
    out.rank = mine.rank;
  }
  if (++table.taken == static_cast<int>(entries.size())) {
    const auto it = split_tables_.find(table.id);
    if (it != split_tables_.end() && it->second.get() == &table) split_tables_.erase(it);
  }
  return out;
}

// -------------------------------------------------- record / replay --------
//
// Recording appends one Event per rank-visible transport completion (and per
// hooked clock read) to this World's section of the installed Recorder;
// replay re-runs one rank against such a log, resuming it at the recorded
// absolute sim-times and verifying everything it emits against the recorded
// stream (docs/record-replay.md).

void World::attach_replay(replay::ReplayFeed* feed) {
  if (nshards_ != 1) {
    throw std::invalid_argument(
        "attach_replay: single-rank replay requires an unsharded World (--shards 1)");
  }
  if (feed == nullptr) throw std::invalid_argument("attach_replay: null feed");
  if (feed->rank() >= size()) {
    throw std::out_of_range("attach_replay: rank " + std::to_string(feed->rank()) +
                            " not in a World of " + std::to_string(size()) + " ranks");
  }
  replay_feed_ = feed;
  record_section_ = nullptr;  // a replay run is never itself recorded
}

void World::record_recv_completion(const RecvRequest& request) {
  if (record_section_ == nullptr) return;
  const Message& msg = request->msg;
  record_section_->append(
      request->owner,
      {.kind = replay::EventKind::kRecv, .peer = msg.src, .tag = msg.tag, .bytes = msg.bytes,
       .time = sim_of(request->owner).now(), .aux0 = msg.sent_at, .aux1 = msg.arrived_at,
       .digest = replay::payload_digest(msg.data), .values = msg.data});
}

double World::clock_read_hook(int rank, vclock::Clock& clock) {
  if (replay_feed_) {
    const replay::Event& ev = replay_feed_->expect(
        {.kind = replay::EventKind::kClockRead, .time = sim_of(rank).now(), .values = {}},
        "clock read");
    return ev.values.empty() ? 0.0 : ev.values[0];
  }
  const double value = clock.now();
  if (record_section_ != nullptr) {
    record_section_->append(rank, {.kind = replay::EventKind::kClockRead,
                                   .time = sim_of(rank).now(),
                                   .digest = replay::payload_digest({value}), .values = {value}});
  }
  return value;
}

// The checked step of a replayed operation that resumes from the log: an
// exhausted feed crashes at the recorded time or diverges (replay_starve),
// and a recorded departure dies exactly as record mode did (the churn
// supervisor resumes the next incarnation).  Both throw.
sim::Task<const replay::Event*> World::replay_next(int me, replay::Event want,
                                                   std::string_view op) {
  const replay::Event* ev = replay_feed_->peek();
  if (ev == nullptr) co_await replay_starve(me);  // always throws
  if (ev->kind == replay::EventKind::kMembership && ev->flags == 0) {
    sim::Simulation& s = sim_of(me);
    ResumeAt resume{&s, ev->time};
    replay_feed_->expect({.kind = replay::EventKind::kMembership, .flags = 0, .values = {}},
                         "departure");
    co_await resume;
    throw RankCrashed{me, s.now()};
  }
  co_return &replay_feed_->expect(want, op);
}

sim::Task<Message> World::replay_recv(RecvRequest request) {
  const int me = request->owner;
  cancel_recv(request);  // no peer will ever complete it
  sim::Simulation& s = sim_of(me);
  check_crash(me);
  const replay::Event* ev = co_await replay_next(
      me, {.kind = replay::EventKind::kRecv, .peer = request->src, .tag = request->tag,
           .values = {}},
      "recv");
  Message msg;
  msg.src = ev->peer;
  msg.tag = ev->tag;
  msg.bytes = ev->bytes;
  msg.sent_at = ev->aux0;
  msg.arrived_at = ev->aux1;
  msg.data = ev->values;
  ResumeAt resume{&s, ev->time};
  co_await resume;
  check_crash(me);
  co_return msg;
}

sim::Task<std::optional<Message>> World::replay_recv_until(RecvRequest request) {
  const int me = request->owner;
  const replay::Event* ev = replay_feed_->peek();
  if (ev != nullptr && ev->kind == replay::EventKind::kRecvTimeout) {
    cancel_recv(request);
    sim::Simulation& s = sim_of(me);
    check_crash(me);
    replay_feed_->expect({.kind = replay::EventKind::kRecvTimeout, .peer = request->src,
                          .tag = request->tag, .values = {}},
                         "bounded recv");
    ResumeAt resume{&s, ev->time};
    co_await resume;
    check_crash(me);
    co_return std::nullopt;
  }
  co_return co_await replay_recv(std::move(request));
}

sim::Task<BurstResult> World::replay_burst(int me, int partner, bool i_am_client) {
  sim::Simulation& s = sim_of(me);
  const replay::Event* ev = co_await replay_next(
      me, {.kind = replay::EventKind::kBurst, .flags = static_cast<std::uint8_t>(i_am_client),
           .peer = partner, .values = {}},
      "pingpong_burst");
  BurstResult result = replay::decode_burst(ev->values);
  ResumeAt resume{&s, ev->time};
  co_await resume;
  check_crash(me);
  co_return result;
}

// The recording of a crashed rank simply ends at its last completed
// operation; there is no explicit crash event.  When the feed runs dry and
// the (purely deterministic) failure detector says this rank does crash,
// advance to that moment and die exactly as record mode did.  Any other
// exhaustion means the replayed program out-ran the recording.
sim::Task<void> World::replay_starve(int me) {
  if (detector_ != nullptr) {
    const sim::Time crash = fault_->next_down(me, sim_of(me).now());
    if (crash < sim::kTimeInfinity) {
      sim::Simulation& s = sim_of(me);
      if (crash > s.now()) {
        ResumeAt resume{&s, crash};
        co_await resume;
      }
      throw RankCrashed{me, s.now()};
    }
  }
  replay_feed_->diverge(
      "recorded event log exhausted (the replayed program performed more operations than the "
      "recording)");
}

// One process per churning rank for the whole run: each scheduled up-period
// runs `fn` as a child coroutine (process accounting sees one spawn, like
// the guarded path), a RankCrashed unwind ends the incarnation, and the
// next one starts — with a purged mailbox and a fresh communicator — at the
// plan's restart time.  A program that completes normally ends the rank for
// good, so churn events scheduled beyond the last operation change nothing
// (the armed-but-unfired guarantee extends to churn plans).
sim::Task<void> World::churn_supervisor(RankFn fn, RankCtx& ctx) {
  const int rank = ctx.rank();
  sim::Simulation& s = sim_of(rank);
  const int incarnations = fault_->incarnation_count(rank);
  for (int k = 0; k < incarnations; ++k) {
    sim::Time start = fault_->up_start(rank, k);
    if (start >= sim::kTimeInfinity) break;           // a final crash: no restart
    if (fault_->up_end(rank, k) <= start) continue;   // empty slot (join: down from 0)
    if (replay_feed_ && k > 0) {
      // The restart instant was recorded as a membership "up" marker; resume
      // exactly there (and verify the plan still schedules this restart).
      if (replay_feed_->peek() == nullptr) co_return;  // recording ended while down
      start = replay_feed_
                  ->expect({.kind = replay::EventKind::kMembership, .flags = 1, .values = {}},
                           "restart")
                  .time;
    }
    if (start > s.now()) {
      if (replay_feed_) {
        ResumeAt resume{&s, start};
        co_await resume;
      } else {
        co_await s.delay(start - s.now());
      }
    }
    if (k > 0) {
      purge_mailbox(rank);
      ctx.reset_comm();
      if (record_section_ != nullptr) {
        record_section_->append(rank, {.kind = replay::EventKind::kMembership, .flags = 1,  // up
                                       .time = s.now(), .aux0 = static_cast<double>(k),
                                       .values = {}});
      }
    }
    try {
      co_await fn(ctx);
      co_return;  // normal completion: later churn events never fire
    } catch (const RankCrashed&) {
      if (replay_feed_) {
        // When the oracle check (not the feed) raised the crash, the
        // recorded down marker is still at the head: consume it so the
        // restart peek below sees the matching up marker.
        const replay::Event* ev = replay_feed_->peek();
        if (ev != nullptr && ev->kind == replay::EventKind::kMembership && ev->flags == 0) {
          replay_feed_->expect({.kind = replay::EventKind::kMembership, .flags = 0, .values = {}},
                               "departure");
        }
      }
      if (record_section_ != nullptr) {
        record_section_->append(rank, {.kind = replay::EventKind::kMembership, .flags = 0,  // down
                                       .time = s.now(), .aux0 = static_cast<double>(k),
                                       .values = {}});
      }
    }
  }
}

}  // namespace hcs::simmpi
