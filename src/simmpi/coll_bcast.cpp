// Broadcast algorithms.
#include "simmpi/coll_detail.hpp"

namespace hcs::simmpi {

namespace {

sim::Task<std::vector<double>> bcast_binomial(Comm& comm, std::vector<double> data, int root,
                                              std::int64_t wire_bytes) {
  const int p = comm.size();
  const int r = comm.rank();
  const int relative = detail::rel(r, root, p);
  const std::size_t unit = data.size();

  int mask = 1;
  while (mask < p) {
    if ((relative & mask) != 0) {
      const int src = detail::abs_rank(relative - mask, root, p);
      std::optional<Message> msg = co_await comm.recv_ft(src, comm.collective_tag(0));
      // A dead parent orphans this subtree: forward the (unchanged) input so
      // descendants still unblock; the sync layer flags the stale payload.
      if (msg) data = std::move(msg->data);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < p) {
      const int dst = detail::abs_rank(relative + mask, root, p);
      co_await comm.send(dst, comm.collective_tag(0), data,
                         detail::wire_size(wire_bytes, unit == 0 ? data.size() : unit));
    }
    mask >>= 1;
  }
  co_return data;
}

sim::Task<std::vector<double>> bcast_linear(Comm& comm, std::vector<double> data, int root,
                                            std::int64_t wire_bytes) {
  const int p = comm.size();
  const int r = comm.rank();
  if (r == root) {
    for (int dst = 0; dst < p; ++dst) {
      if (dst == root) continue;
      co_await comm.send(dst, comm.collective_tag(0), data,
                         detail::wire_size(wire_bytes, data.size()));
    }
    co_return data;
  }
  std::optional<Message> msg = co_await comm.recv_ft(root, comm.collective_tag(0));
  if (msg) data = std::move(msg->data);
  co_return data;
}

sim::Task<std::vector<double>> bcast_chain(Comm& comm, std::vector<double> data, int root,
                                           std::int64_t wire_bytes) {
  const int p = comm.size();
  const int relative = detail::rel(comm.rank(), root, p);
  if (relative > 0) {
    std::optional<Message> msg = co_await comm.recv_ft(detail::abs_rank(relative - 1, root, p),
                                                       comm.collective_tag(0));
    if (msg) data = std::move(msg->data);
  }
  if (relative + 1 < p) {
    co_await comm.send(detail::abs_rank(relative + 1, root, p), comm.collective_tag(0), data,
                       detail::wire_size(wire_bytes, data.size()));
  }
  co_return data;
}

// Van de Geijn: binomial-scatter the payload into p chunks, then ring-
// allgather them — the large-message broadcast in MPICH and Open MPI.
sim::Task<std::vector<double>> bcast_scatter_allgather(Comm& comm, std::vector<double> data,
                                                       int root, std::int64_t wire_bytes) {
  const int p = comm.size();
  // Non-roots do not know the payload size; announce it down a binomial
  // tree first (MPI proper knows the count from the call signature — this
  // tiny message models that metadata instead).
  std::vector<double> size_msg;
  if (comm.rank() == root) size_msg.push_back(static_cast<double>(data.size()));
  size_msg = co_await bcast_binomial(comm, std::move(size_msg), root, 8);
  // Orphaned subtrees never learn the size; fall back to zero so the
  // scatter/allgather passes below still run (with empty blocks) and finish.
  const auto n = size_msg.empty() || !(size_msg.front() >= 0.0)
                     ? std::size_t{0}
                     : static_cast<std::size_t>(size_msg.front());

  const std::size_t chunk = (n + static_cast<std::size_t>(p) - 1) / static_cast<std::size_t>(p);
  if (comm.rank() == root) data.resize(chunk * static_cast<std::size_t>(p), 0.0);
  const std::int64_t chunk_wire =
      wire_bytes > 0 ? std::max<std::int64_t>(1, wire_bytes / p) : 0;
  std::vector<double> mine = co_await scatter(comm, std::move(data), chunk, root,
                                              ScatterAlgo::kBinomial, chunk_wire);
  std::vector<double> full =
      co_await allgather(comm, std::move(mine), AllgatherAlgo::kRing, chunk_wire);
  full.resize(n);
  co_return full;
}

sim::Task<std::vector<double>> bcast_by(Comm& comm, std::vector<double> data, int root,
                                        BcastAlgo algo, std::int64_t wire_bytes) {
  if (comm.size() == 1) return detail::own_result(std::move(data));
  switch (algo) {
    case BcastAlgo::kBinomial: return bcast_binomial(comm, std::move(data), root, wire_bytes);
    case BcastAlgo::kLinear: return bcast_linear(comm, std::move(data), root, wire_bytes);
    case BcastAlgo::kChain: return bcast_chain(comm, std::move(data), root, wire_bytes);
    case BcastAlgo::kScatterAllgather:
      return bcast_scatter_allgather(comm, std::move(data), root, wire_bytes);
  }
  return detail::own_result(std::move(data));
}

}  // namespace

sim::Task<std::vector<double>> bcast(Comm& comm, std::vector<double> data, int root,
                                     BcastAlgo algo, std::int64_t wire_bytes) {
  detail::check_root(comm, root);
  comm.advance_collective();
  return detail::in_span(bcast_by(comm, std::move(data), root, algo, wire_bytes),
                         comm.my_world_rank(), "bcast", wire_bytes);
}

}  // namespace hcs::simmpi
