#include "simmpi/comm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "simmpi/collectives.hpp"

namespace hcs::simmpi {

namespace {
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

constexpr std::uint64_t kWorldContext = 0x57f2'11d3'9ab1'4e01ULL;
}  // namespace

Comm::Comm(World* world, std::shared_ptr<const std::vector<int>> members, int my_index,
           std::uint64_t context)
    : world_(world), members_(std::move(members)), my_index_(my_index), context_(context) {
  if (!world_ || !members_ || my_index_ < 0 ||
      my_index_ >= static_cast<int>(members_->size())) {
    throw std::invalid_argument("Comm: malformed communicator");
  }
}

Comm Comm::world_comm(World& world, int rank) {
  return Comm(&world, world.world_members(), rank, kWorldContext);
}

Comm Comm::view_comm(World& world, int rank, sim::Time at) {
  // Membership is a pure function of the fault plan, so every up rank that
  // evaluates the same `at` builds the same member list and context without
  // exchanging a single message — the property that lets a restarted rank
  // join a communicator its peers constructed while it was away.
  const fault::FaultInjector* fault = world.fault_injector();
  if (!fault) return world_comm(world, rank);  // no plan: everyone is up, epoch 0
  auto members = std::make_shared<std::vector<int>>();
  members->reserve(static_cast<std::size_t>(world.size()));
  int my_index = -1;
  for (int r = 0; r < world.size(); ++r) {
    if (fault && fault->is_down(r, at)) continue;
    if (r == rank) my_index = static_cast<int>(members->size());
    members->push_back(r);
  }
  const std::uint64_t epoch = world.membership_epoch(at);
  // Epoch 0 (no transition fired yet) must reproduce the world context
  // exactly so armed-but-unfired churn plans stay bit-identical.
  const std::uint64_t context =
      epoch == 0 ? kWorldContext
                 : mix64(kWorldContext ^ (epoch * 0x9e3779b97f4a7c15ULL));
  Comm comm(&world, std::move(members), my_index, context);
  comm.view_epoch_ = epoch;
  return comm;
}

std::int64_t Comm::user_tag(int tag) const {
  // High bits: communicator context; a sentinel sequence keeps user tags
  // disjoint from collective-phase tags.
  return static_cast<std::int64_t>(
      (context_ << 24) ^ 0x00ff'ff00'0000'0000ULL ^ static_cast<std::uint64_t>(tag));
}

std::int64_t Comm::collective_tag(int phase) const {
  // Injective only while phase < 2^16 and coll_seq < 2^8, and neither bound
  // is asserted: the ring allreduce's phase offsets (20000 + step) collide
  // past 20 001 ranks.  ROADMAP.md's "Asserted invariants at scale" item
  // tracks making tags a structured key or proving the packing injective.
  return static_cast<std::int64_t>((context_ << 24) ^ (coll_seq_ << 16) ^
                                   static_cast<std::uint64_t>(phase));
}

sim::Task<void> Comm::send(int dst, int tag, std::vector<double> data, std::int64_t bytes) {
  return world_->p2p_send(my_world_rank(), world_rank(dst), user_tag(tag), std::move(data),
                          bytes);
}

sim::Task<Message> Comm::recv(int src, int tag) {
  return world_->await_recv(world_->p2p_irecv(my_world_rank(), world_rank(src), user_tag(tag)));
}

sim::Task<std::optional<Message>> Comm::recv_ft(int src, int tag) {
  const int me = my_world_rank();
  const int wsrc = world_rank(src);
  // Bounded by the modelled detection time for a peer that actually dies,
  // plus the liveness net so even a pathological live-live cross-wait
  // terminates (degraded) instead of deadlocking the world.  The deadline is
  // the *next* dead declaration relative to now, so a peer that departed and
  // rejoined earlier does not poison later receives with a stale deadline.
  // Without a detector the message always comes.
  const FailureDetector* fd = world_->failure_detector();
  const sim::Time deadline =
      fd ? std::min(fd->detect_time_after(me, wsrc, sim().now()), sim().now() + kLivenessTimeout)
         : sim::kTimeInfinity;
  return world_->await_recv_until(world_->p2p_irecv(me, wsrc, user_tag(tag)), deadline);
}

PeerStatus Comm::peer_status(int comm_rank) const {
  const FailureDetector* fd = world_->failure_detector();
  if (!fd) return PeerStatus::kAlive;
  return fd->status(my_world_rank(), world_rank(comm_rank), sim().now());
}

RecvRequest Comm::irecv(int src, int tag) {
  return world_->p2p_irecv(my_world_rank(), world_rank(src), user_tag(tag));
}

sim::Task<Message> Comm::wait(RecvRequest request) {
  return world_->await_recv(std::move(request));
}

SendRequest Comm::isend(int dst, int tag, std::vector<double> data, std::int64_t bytes) {
  return world_->p2p_isend(my_world_rank(), world_rank(dst), user_tag(tag), std::move(data),
                           bytes);
}

sim::Task<void> Comm::wait(SendRequest request) {
  return world_->await_send(std::move(request));
}

sim::Task<BurstResult> Comm::pingpong_burst(int partner, bool i_am_client, vclock::Clock& clock,
                                            int nexchanges, std::int64_t bytes) {
  return world_->pingpong_burst(my_world_rank(), world_rank(partner), i_am_client, clock,
                                nexchanges, bytes);
}

// Direct (no-relay) member exchange used by split under the crash model:
// every pair of live ranks always learns about each other, a dead rank's
// slot stays NaN.  O(p^2) messages instead of Bruck's p log p, but immune
// to a relay dying with other ranks' blocks in its hands.
sim::Task<std::vector<double>> Comm::split_exchange_ft(std::vector<double> mine) {
  advance_collective();
  const int p = size();
  const int r = rank();
  const std::int64_t tag = collective_tag(0);
  std::vector<double> all(static_cast<std::size_t>(2 * p),
                          std::numeric_limits<double>::quiet_NaN());
  std::copy(mine.begin(), mine.end(), all.begin() + static_cast<std::ptrdiff_t>(2 * r));
  for (int peer = 0; peer < p; ++peer) {
    if (peer != r) co_await send(peer, tag, mine, 16);
  }
  for (int peer = 0; peer < p; ++peer) {
    if (peer == r) continue;
    std::optional<Message> msg = co_await recv_ft(peer, tag);
    if (msg && msg->data.size() == 2) {
      std::copy(msg->data.begin(), msg->data.end(),
                all.begin() + static_cast<std::ptrdiff_t>(2 * peer));
    }
  }
  co_return all;
}

// The fault-free split, which every rank of a large World runs, keeps its
// frame small: the exchange path's locals live in a coroutine of their own.
// The sequence number is taken and the table posted at the call; every
// caller awaits the split at once, so that is the order the splits run in.
sim::Task<Comm> Comm::split(int color, int key) {
  const std::uint64_t seq = ++split_seq_;
  const std::uint64_t new_context =
      mix64(context_ ^ (seq * 0x9e3779b97f4a7c15ULL) ^
            (static_cast<std::uint64_t>(color) + 0x165667b19e3779f9ULL));
  if ((world_->failure_detector() && size() > 1) || world_->records_transport()) {
    return split_exchange(color, key, new_context);
  }
  return split_table(world_->post_split(context_, seq, size(), my_index_, color, key),
                     new_context);
}

// The table path: this member's (color, key) is posted to `table`, and the
// Bruck allgather's messages carry nothing, so simulated traffic is that of
// split_exchange's payload exchange.
sim::Task<Comm> Comm::split_table(std::shared_ptr<World::SplitTable> table,
                                  std::uint64_t new_context) {
  co_await allgather(*this, std::vector<double>(), AllgatherAlgo::kBruck, 2 * sizeof(double));
  World::SplitPlacement placed = world_->take_split(*table, *members_, my_index_);
  if (!placed.members) co_return Comm{};
  co_return Comm(world_, std::move(placed.members), placed.rank, new_context);
}

sim::Task<Comm> Comm::split_exchange(int color, int key, std::uint64_t new_context) {
  // Exchange (color, key) with every member, then build the group locally —
  // the standard MPI_Comm_split recipe.  Under the crash model the exchange
  // is fault-tolerant and dead ranks simply drop out of the new
  // communicator: because members stay sorted, the lowest live rank of each
  // split becomes its rank 0 — deterministic leader election for free.
  const std::vector<double> mine = {static_cast<double>(color), static_cast<double>(key)};
  std::vector<double> all;
  if (world_->failure_detector() && size() > 1) {
    all = co_await split_exchange_ft(mine);
  } else {
    all = co_await allgather(*this, mine);
  }
  if (color == kUndefined) co_return Comm{};

  struct Entry {
    int key;
    int comm_rank;
  };
  std::vector<Entry> group;
  for (int r = 0; r < size(); ++r) {
    const double rc = all[static_cast<std::size_t>(2 * r)];
    if (std::isnan(rc)) continue;  // dead or unreachable: excluded from the split
    const int r_color = static_cast<int>(rc);
    const int r_key = static_cast<int>(all[static_cast<std::size_t>(2 * r + 1)]);
    if (r_color == color) group.push_back(Entry{r_key, r});
  }
  std::stable_sort(group.begin(), group.end(), [](const Entry& a, const Entry& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.comm_rank < b.comm_rank;
  });
  auto members = std::make_shared<std::vector<int>>();
  members->reserve(group.size());
  int my_new_index = -1;
  for (const Entry& e : group) {
    if (e.comm_rank == my_index_) my_new_index = static_cast<int>(members->size());
    members->push_back(world_rank(e.comm_rank));
  }
  co_return Comm(world_, std::move(members), my_new_index, new_context);
}

sim::Task<Comm> Comm::split_shared_node() {
  const int node = world_->topo().locate(my_world_rank()).node;
  return split(node, my_world_rank());
}

sim::Task<Comm> Comm::split_shared_socket() {
  const int socket = world_->topo().locate(my_world_rank()).socket;
  return split(socket, my_world_rank());
}

}  // namespace hcs::simmpi
