// Nonblocking point-to-point requests (MPI_Isend / MPI_Irecv analogues).
//
// irecv posts a receive and returns a handle; the message may arrive and be
// matched while the rank keeps computing.  await_recv (MPI_Wait) suspends
// only if the message has not arrived yet.  isend returns immediately; its
// completion marks the moment the send buffer would be reusable (after the
// sender-side overhead).
#pragma once

#include <coroutine>
#include <memory>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "simmpi/message.hpp"

namespace hcs::simmpi {

struct RecvState {
  int src = -1;
  std::int64_t tag = 0;
  int owner = -1;  // receiving rank
  bool complete = false;
  // Crash-model resolution flags (request.hpp stays trivially usable without
  // the failure detector: both remain false then).  `timed_out` means the
  // give-up deadline passed before a match; `owner_crashed` means the
  // receiving rank's own crash time passed while it was blocked.
  bool timed_out = false;
  bool owner_crashed = false;
  Message msg;
  std::coroutine_handle<> waiter = nullptr;
  // The blocked waiter's timer (crash model only), armed at the earlier of
  // the two resolutions above; a match cancels it.
  sim::TimerId timer = sim::kNoTimer;
};

struct SendState {
  int owner = -1;  // sending rank (routes await_send to the sender's shard)
  sim::Time complete_at = 0.0;
};

using RecvRequest = std::shared_ptr<RecvState>;
using SendRequest = std::shared_ptr<SendState>;

}  // namespace hcs::simmpi
