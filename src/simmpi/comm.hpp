// Communicator: an ordered group of world ranks with a private tag context.
//
// Comm mirrors the MPI_Comm surface the paper's algorithms need: rank/size,
// tagged point-to-point, split (including MPI_COMM_TYPE_SHARED-style node and
// socket splits), and a per-communicator collective sequence number that
// keeps concurrent collectives on different communicators from cross-talking.
// Comm objects are cheap per-rank values; members are shared immutably: every
// world communicator of a World points at its one identity list, and the
// members of a communicator made by a fault-free split() are built once per
// split and shared by the whole group.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sim/task.hpp"
#include "simmpi/failure.hpp"
#include "simmpi/message.hpp"
#include "simmpi/world.hpp"

namespace hcs::simmpi {

class Comm {
 public:
  /// Color value excluding the caller from the new communicator.
  static constexpr int kUndefined = -1;

  /// Invalid communicator (MPI_COMM_NULL analogue).
  Comm() = default;

  Comm(World* world, std::shared_ptr<const std::vector<int>> members, int my_index,
       std::uint64_t context);

  static Comm world_comm(World& world, int rank);

  /// Message-free view communicator: the ranks that are up at time `at`
  /// under the World's fault plan, in world-rank order, with a tag context
  /// derived from the membership epoch at `at`.  Because membership is a
  /// pure function of the (deterministic) plan, every live rank evaluating
  /// the same `at` constructs an identical communicator without exchanging
  /// a message — the churn layer's replacement for a full comm split when a
  /// rank departs or returns.  The caller must be up at `at`.
  static Comm view_comm(World& world, int rank, sim::Time at);

  bool valid() const noexcept { return world_ != nullptr; }
  int rank() const noexcept { return my_index_; }
  int size() const noexcept { return members_ ? static_cast<int>(members_->size()) : 0; }
  int world_rank(int comm_rank) const { return (*members_)[static_cast<std::size_t>(comm_rank)]; }
  int my_world_rank() const { return world_rank(my_index_); }
  World& world() const noexcept { return *world_; }
  /// The simulation advancing this rank's shard (World::sim_of of this
  /// rank); rank code reads time through here or RankCtx::sim().
  sim::Simulation& sim() const noexcept { return world_->sim_of(my_world_rank()); }

  /// Point-to-point by communicator rank.  `bytes` defaults to the payload
  /// size (minimum 8 B on the wire).
  sim::Task<void> send(int dst, int tag, std::vector<double> data = {}, std::int64_t bytes = 0);
  sim::Task<Message> recv(int src, int tag);

  /// Fault-tolerant receive: the message, or nullopt once this rank's
  /// failure detector declares `src` dead (never nullopt for a live,
  /// reachable peer).  Identical to recv() when no crash fault is active.
  /// Quorum collectives and the self-healing sync layer build on this.
  sim::Task<std::optional<Message>> recv_ft(int src, int tag);

  /// This rank's current view of a communicator peer; kAlive when no crash
  /// fault is active (see simmpi::FailureDetector).
  PeerStatus peer_status(int comm_rank) const;

  /// Nonblocking variants (MPI_Isend / MPI_Irecv / MPI_Wait analogues).
  /// irecv posts immediately; wait() on the returned request completes the
  /// transfer.  isend hands the message to the network immediately; waiting
  /// on it models buffer-reuse completion.
  RecvRequest irecv(int src, int tag);
  sim::Task<Message> wait(RecvRequest request);
  SendRequest isend(int dst, int tag, std::vector<double> data = {}, std::int64_t bytes = 0);
  sim::Task<void> wait(SendRequest request);

  /// Pairwise ping-pong burst (see World::pingpong_burst); `partner` is a
  /// communicator rank.
  sim::Task<BurstResult> pingpong_burst(int partner, bool i_am_client, vclock::Clock& clock,
                                        int nexchanges, std::int64_t bytes = 16);

  /// Splits by color/key (MPI_Comm_split: ranks ordered by key, then by
  /// rank here; kUndefined yields an invalid Comm).  Collective over all
  /// members, with a realistic cost — the paper deliberately includes it in
  /// the hierarchical sync duration.  Which exchange runs depends on the
  /// World:
  ///  - under the crash model, a direct all-pairs exchange of (color, key)
  ///    that survives dying members, which drop out of the new communicator;
  ///  - with a recorder or replay feed attached, a Bruck allgather of the
  ///    (color, key) payloads, the only way a replayed rank learns its
  ///    peers' colors;
  ///  - otherwise the same Bruck allgather (same tags, 16 B per block on the
  ///    wire) with empty payloads: each member posts its (color, key) to the
  ///    World's table for this split, and after the allgather takes its new
  ///    communicator from member lists built once for the whole split.
  /// All three produce the same communicators and, fault-free, the same
  /// simulated traffic.
  sim::Task<Comm> split(int color, int key);

  /// MPI_COMM_TYPE_SHARED analogue: one communicator per node.
  sim::Task<Comm> split_shared_node();

  /// One communicator per socket.
  sim::Task<Comm> split_shared_socket();

  /// Membership epoch this communicator was built under (0 for the world
  /// communicator and every fault-free or pre-transition view).  Receives
  /// and collectives on a view communicator are thereby stamped with the
  /// view: the tag context folds the epoch in, so a message sent under a
  /// stale view can never match a receive posted under the current one.
  std::uint64_t view_epoch() const noexcept { return view_epoch_; }

  /// Tag for one phase of the current collective; advance_collective() must
  /// be called exactly once per collective invocation (the collectives API
  /// does this).
  std::int64_t collective_tag(int phase) const;
  void advance_collective() noexcept { ++coll_seq_; }

 private:
  std::int64_t user_tag(int tag) const;
  sim::Task<std::vector<double>> split_exchange_ft(std::vector<double> mine);

  World* world_ = nullptr;
  std::shared_ptr<const std::vector<int>> members_;
  int my_index_ = -1;
  std::uint64_t context_ = 0;
  std::uint64_t coll_seq_ = 0;
  std::uint64_t split_seq_ = 0;
  std::uint64_t view_epoch_ = 0;
};

}  // namespace hcs::simmpi
