// Inclusive prefix reduction (MPI_Scan) algorithms.
#include "simmpi/coll_detail.hpp"

namespace hcs::simmpi {

namespace {

sim::Task<std::vector<double>> scan_linear(Comm& comm, std::vector<double> data, ReduceOp op,
                                           std::int64_t wire_bytes) {
  const int p = comm.size();
  const int r = comm.rank();
  const std::int64_t wire = detail::wire_size(wire_bytes, data.size());
  if (r > 0) {
    std::optional<Message> msg = co_await comm.recv_ft(r - 1, comm.collective_tag(0));
    // prefix(r) = prefix(r-1) op x_r; ops are commutative here.  A dead
    // predecessor contributes the identity and the chain keeps moving.
    if (msg) accumulate(op, data, msg->data);
  }
  if (r + 1 < p) {
    co_await comm.send(r + 1, comm.collective_tag(0), data, wire);
  }
  co_return data;
}

// Recursive doubling: log2(p) rounds; `val` accumulates the reduction of a
// growing suffix window ending at this rank, `result` the full prefix.
sim::Task<std::vector<double>> scan_recursive_doubling(Comm& comm, std::vector<double> data,
                                                       ReduceOp op, std::int64_t wire_bytes) {
  const int p = comm.size();
  const int r = comm.rank();
  const std::int64_t wire = detail::wire_size(wire_bytes, data.size());
  std::vector<double> val = data;     // op over ranks (r - 2^k + 1 .. r)
  std::vector<double> result = data;  // op over ranks (0 .. r)
  int round = 0;
  for (int mask = 1; mask < p; mask <<= 1, ++round) {
    const std::int64_t tag = comm.collective_tag(round);
    if (r + mask < p) co_await comm.send(r + mask, tag, val, wire);
    if (r - mask >= 0) {
      std::optional<Message> msg = co_await comm.recv_ft(r - mask, tag);
      if (msg) {
        accumulate(op, val, msg->data);
        accumulate(op, result, msg->data);
      }
    }
  }
  co_return result;
}

}  // namespace

sim::Task<std::vector<double>> scan(Comm& comm, std::vector<double> data, ReduceOp op,
                                    ScanAlgo algo, std::int64_t wire_bytes) {
  comm.advance_collective();
  if (comm.size() == 1) return detail::own_result(std::move(data));
  switch (algo) {
    case ScanAlgo::kLinear: return scan_linear(comm, std::move(data), op, wire_bytes);
    case ScanAlgo::kRecursiveDoubling:
      return scan_recursive_doubling(comm, std::move(data), op, wire_bytes);
  }
  return detail::own_result(std::move(data));
}

}  // namespace hcs::simmpi
