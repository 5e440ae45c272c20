// Reduce algorithms (commutative operations).
#include "simmpi/coll_detail.hpp"

namespace hcs::simmpi {

namespace {

sim::Task<std::vector<double>> reduce_binomial(Comm& comm, std::vector<double> data, ReduceOp op,
                                               int root, std::int64_t wire_bytes) {
  const int p = comm.size();
  const int relative = detail::rel(comm.rank(), root, p);
  const std::size_t unit = data.size();
  for (int mask = 1; mask < p; mask <<= 1) {
    if ((relative & mask) == 0) {
      const int partner_rel = relative | mask;
      if (partner_rel < p) {
        std::optional<Message> msg =
            co_await comm.recv_ft(detail::abs_rank(partner_rel, root, p), comm.collective_tag(0));
        // A dead subtree contributes the identity; the reduction still
        // completes over the surviving quorum.
        if (msg) accumulate(op, data, msg->data);
      }
    } else {
      const int parent_rel = relative & ~mask;
      co_await comm.send(detail::abs_rank(parent_rel, root, p), comm.collective_tag(0), data,
                         detail::wire_size(wire_bytes, unit));
      co_return std::vector<double>{};
    }
  }
  co_return data;  // only the root reaches here
}

sim::Task<std::vector<double>> reduce_linear(Comm& comm, std::vector<double> data, ReduceOp op,
                                             int root, std::int64_t wire_bytes) {
  const int p = comm.size();
  const int r = comm.rank();
  if (r != root) {
    co_await comm.send(root, comm.collective_tag(0), data,
                       detail::wire_size(wire_bytes, data.size()));
    co_return std::vector<double>{};
  }
  for (int src = 0; src < p; ++src) {
    if (src == root) continue;
    std::optional<Message> msg = co_await comm.recv_ft(src, comm.collective_tag(0));
    if (msg) accumulate(op, data, msg->data);
  }
  co_return data;
}

}  // namespace

sim::Task<std::vector<double>> reduce(Comm& comm, std::vector<double> data, ReduceOp op, int root,
                                      ReduceAlgo algo, std::int64_t wire_bytes) {
  detail::check_root(comm, root);
  comm.advance_collective();
  if (comm.size() == 1) return detail::own_result(std::move(data));
  switch (algo) {
    case ReduceAlgo::kBinomial: return reduce_binomial(comm, std::move(data), op, root, wire_bytes);
    case ReduceAlgo::kLinear: return reduce_linear(comm, std::move(data), op, root, wire_bytes);
  }
  return detail::own_result(std::move(data));
}

}  // namespace hcs::simmpi
