// Barrier algorithms (paper §V-B, Figs. 7 and 8).
//
// The imbalance each algorithm induces — the spread of exit times across
// ranks — is a measured quantity in the paper, so these are faithful
// message-schedule implementations of the Open MPI algorithm family.
#include "simmpi/coll_detail.hpp"

namespace hcs::simmpi {

namespace {

// Tokens use the fault-tolerant receive throughout: a token from a dead peer
// simply never arrives and the barrier completes over the surviving quorum.
constexpr std::int64_t kTokenBytes = 8;

sim::Task<void> barrier_linear(Comm& comm) {
  const int p = comm.size();
  const int r = comm.rank();
  if (r == 0) {
    for (int src = 1; src < p; ++src) co_await comm.recv_ft(src, comm.collective_tag(0));
    for (int dst = 1; dst < p; ++dst) {
      co_await comm.send(dst, comm.collective_tag(1), {}, kTokenBytes);
    }
  } else {
    co_await comm.send(0, comm.collective_tag(0), {}, kTokenBytes);
    co_await comm.recv_ft(0, comm.collective_tag(1));
  }
}

// Binomial fan-in to rank 0 followed by binomial fan-out.
sim::Task<void> barrier_tree(Comm& comm) {
  const int p = comm.size();
  const int r = comm.rank();
  // Fan-in.
  for (int mask = 1; mask < p; mask <<= 1) {
    if ((r & mask) != 0) {
      co_await comm.send(r - mask, comm.collective_tag(64), {}, kTokenBytes);
      break;
    }
    if (r + mask < p) co_await comm.recv_ft(r + mask, comm.collective_tag(64));
  }
  // Fan-out.
  int mask = 1;
  while (mask < p) {
    if ((r & mask) != 0) {
      co_await comm.recv_ft(r - mask, comm.collective_tag(65));
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (r + mask < p) co_await comm.send(r + mask, comm.collective_tag(65), {}, kTokenBytes);
    mask >>= 1;
  }
}

// Two passes of a unidirectional ring token (the Open MPI "double ring").
sim::Task<void> barrier_double_ring(Comm& comm) {
  const int p = comm.size();
  const int r = comm.rank();
  const int left = (r - 1 + p) % p;
  const int right = (r + 1) % p;
  for (int round = 0; round < 2; ++round) {
    const std::int64_t tag = comm.collective_tag(round);
    if (r == 0) {
      co_await comm.send(right, tag, {}, kTokenBytes);
      co_await comm.recv_ft(left, tag);
    } else {
      co_await comm.recv_ft(left, tag);
      co_await comm.send(right, tag, {}, kTokenBytes);
    }
  }
}

// Dissemination barrier (Open MPI calls this variant "bruck").
sim::Task<void> barrier_bruck(Comm& comm) {
  const int p = comm.size();
  const int r = comm.rank();
  int round = 0;
  for (int dist = 1; dist < p; dist <<= 1, ++round) {
    const int to = (r + dist) % p;
    const int from = (r - dist + p) % p;
    const std::int64_t tag = comm.collective_tag(round);
    co_await comm.send(to, tag, {}, kTokenBytes);
    co_await comm.recv_ft(from, tag);
  }
}

// Recursive doubling with the usual fold for non-power-of-two sizes.
sim::Task<void> barrier_recursive_doubling(Comm& comm) {
  const int p = comm.size();
  const int r = comm.rank();
  const int pof2 = detail::pof2_floor(p);
  const int rem = p - pof2;

  int newrank;
  if (r < 2 * rem) {
    if (r % 2 == 0) {
      co_await comm.send(r + 1, comm.collective_tag(100), {}, kTokenBytes);
      newrank = -1;
    } else {
      co_await comm.recv_ft(r - 1, comm.collective_tag(100));
      newrank = r / 2;
    }
  } else {
    newrank = r - rem;
  }
  if (newrank >= 0) {
    auto real = [&](int nr) { return nr < rem ? nr * 2 + 1 : nr + rem; };
    int round = 0;
    for (int mask = 1; mask < pof2; mask <<= 1, ++round) {
      const int partner = real(newrank ^ mask);
      const std::int64_t tag = comm.collective_tag(101 + round);
      co_await comm.send(partner, tag, {}, kTokenBytes);
      co_await comm.recv_ft(partner, tag);
    }
  }
  if (r < 2 * rem) {
    if (r % 2 == 0) {
      co_await comm.recv_ft(r + 1, comm.collective_tag(200));
    } else {
      co_await comm.send(r - 1, comm.collective_tag(200), {}, kTokenBytes);
    }
  }
}

sim::Task<void> barrier_by(Comm& comm, BarrierAlgo algo) {
  if (comm.size() == 1) return detail::no_op();
  switch (algo) {
    case BarrierAlgo::kLinear: return barrier_linear(comm);
    case BarrierAlgo::kTree: return barrier_tree(comm);
    case BarrierAlgo::kDoubleRing: return barrier_double_ring(comm);
    case BarrierAlgo::kBruck: return barrier_bruck(comm);
    case BarrierAlgo::kRecursiveDoubling: return barrier_recursive_doubling(comm);
  }
  return detail::no_op();
}

}  // namespace

sim::Task<void> barrier(Comm& comm, BarrierAlgo algo) {
  comm.advance_collective();
  return detail::in_span(barrier_by(comm, algo), comm.my_world_rank(), "barrier",
                         static_cast<std::int64_t>(algo));
}

}  // namespace hcs::simmpi
