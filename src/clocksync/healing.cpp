#include "clocksync/healing.hpp"

#include <optional>
#include <vector>

#include "simmpi/message.hpp"

namespace hcs::clocksync {

bool crash_model_active(const simmpi::Comm& comm) {
  return comm.world().failure_detector() != nullptr;
}

bool crash_era_begun(const simmpi::Comm& comm) {
  const simmpi::FailureDetector* fd = comm.world().failure_detector();
  return fd && fd->any_event_fired(comm.sim().now());
}

sim::Task<bool> agree_any(simmpi::Comm& comm, bool my_vote) {
  if (!crash_model_active(comm) || comm.size() <= 1) co_return my_vote;
  // Direct O(p^2) exchange, mirroring Comm::split's crash-era member
  // exchange: no relays, so a dead rank can only lose its own vote.  A vote
  // lost to a crash reads as "false", which at worst skips a heal for a rank
  // that is dead anyway.
  comm.advance_collective();
  const std::int64_t tag = comm.collective_tag(0);
  const std::vector<double> ballot = {my_vote ? 1.0 : 0.0};
  for (int peer = 0; peer < comm.size(); ++peer) {
    if (peer != comm.rank()) co_await comm.send(peer, tag, ballot, 8);
  }
  bool any = my_vote;
  for (int peer = 0; peer < comm.size(); ++peer) {
    if (peer == comm.rank()) continue;
    std::optional<simmpi::Message> msg = co_await comm.recv_ft(peer, tag);
    if (msg && !msg->data.empty() && msg->data.front() != 0.0) any = true;
  }
  co_return any;
}

sim::Task<simmpi::Comm> surviving_quorum(simmpi::Comm& comm) {
  // The crash-era split excludes ranks whose (color, key) never arrived;
  // members stay sorted, so the lowest live rank is elected rank 0.
  return comm.split(0, comm.rank());
}

}  // namespace hcs::clocksync
