// Allgather algorithms.  All ranks contribute equal-length vectors and end
// with the concatenation in communicator-rank order.  Comm::split builds on
// this, so communicator creation inherits a realistic collective cost.
#include "simmpi/coll_detail.hpp"

namespace hcs::simmpi {

namespace {

// Bruck: log2(p) rounds on rotated block order, then a local rotation.
sim::Task<std::vector<double>> allgather_bruck(Comm& comm, std::vector<double> mine,
                                               std::int64_t wire_bytes) {
  const int p = comm.size();
  const int r = comm.rank();
  const std::size_t unit = mine.size();

  // blocks[i] is the block of rank (r + i) % p.
  std::vector<double> blocks = std::move(mine);
  int have = 1;
  int round = 0;
  for (int dist = 1; dist < p; dist <<= 1, ++round) {
    const int to = (r - dist + p) % p;
    const int from = (r + dist) % p;
    const int send_count = std::min(have, p - have);
    std::vector<double> out(blocks.begin(),
                            blocks.begin() + static_cast<std::ptrdiff_t>(unit) * send_count);
    const std::int64_t tag = comm.collective_tag(round);
    co_await comm.send(to, tag, std::move(out),
                       detail::wire_size(wire_bytes, unit, static_cast<std::size_t>(send_count)));
    // `have` evolves identically on every rank (1, 2, 4, ... clamped at p),
    // so the expected incoming block count equals our own send_count even
    // when the sender died and the payload is NaN-substituted.
    std::optional<Message> msg = co_await comm.recv_ft(from, tag);
    std::vector<double> got =
        detail::data_or_nan(std::move(msg), unit * static_cast<std::size_t>(send_count));
    blocks.insert(blocks.end(), got.begin(), got.end());
    have += send_count;
  }
  // Un-rotate: result block j belongs to rank j == (r + i) % p.
  std::vector<double> out(unit * static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) {
    const int owner = (r + i) % p;
    std::copy_n(blocks.begin() + static_cast<std::ptrdiff_t>(unit) * i, unit,
                out.begin() + static_cast<std::ptrdiff_t>(unit) * owner);
  }
  co_return out;
}

// Ring: p-1 steps, each forwarding the block received in the previous step.
sim::Task<std::vector<double>> allgather_ring(Comm& comm, std::vector<double> mine,
                                              std::int64_t wire_bytes) {
  const int p = comm.size();
  const int r = comm.rank();
  const int left = (r - 1 + p) % p;
  const int right = (r + 1) % p;
  const std::size_t unit = mine.size();

  std::vector<double> out(unit * static_cast<std::size_t>(p));
  std::copy(mine.begin(), mine.end(), out.begin() + static_cast<std::ptrdiff_t>(unit) * r);
  for (int step = 0; step < p - 1; ++step) {
    const int send_owner = (r - step + p) % p;
    const int recv_owner = (r - step - 1 + p) % p;
    std::vector<double> block(
        out.begin() + static_cast<std::ptrdiff_t>(unit) * send_owner,
        out.begin() + static_cast<std::ptrdiff_t>(unit) * (send_owner + 1));
    const std::int64_t tag = comm.collective_tag(step);
    co_await comm.send(right, tag, std::move(block), detail::wire_size(wire_bytes, unit));
    std::vector<double> got = detail::data_or_nan(co_await comm.recv_ft(left, tag), unit);
    std::copy(got.begin(), got.end(),
              out.begin() + static_cast<std::ptrdiff_t>(unit) * recv_owner);
  }
  co_return out;
}

}  // namespace

sim::Task<std::vector<double>> allgather(Comm& comm, std::vector<double> mine,
                                         AllgatherAlgo algo, std::int64_t wire_bytes) {
  comm.advance_collective();
  if (comm.size() == 1) return detail::own_result(std::move(mine));
  switch (algo) {
    case AllgatherAlgo::kBruck: return allgather_bruck(comm, std::move(mine), wire_bytes);
    case AllgatherAlgo::kRing: return allgather_ring(comm, std::move(mine), wire_bytes);
  }
  return detail::own_result(std::move(mine));
}

}  // namespace hcs::simmpi
