// Block reduce-scatter algorithms.
#include "simmpi/coll_detail.hpp"

namespace hcs::simmpi {

namespace {

// Ring: p-1 steps; after step s a rank holds the partial reduction of the
// chunk it will own — the reduce-scatter half of the ring allreduce.
sim::Task<std::vector<double>> reduce_scatter_ring(Comm& comm, std::vector<double> data,
                                                   std::size_t chunk, ReduceOp op,
                                                   std::int64_t wire_bytes) {
  const int p = comm.size();
  const int r = comm.rank();
  const int left = (r - 1 + p) % p;
  const int right = (r + 1) % p;
  const std::int64_t chunk_wire = detail::wire_size(wire_bytes, chunk);

  auto block = [&](const std::vector<double>& buf, int idx) {
    return std::vector<double>(buf.begin() + static_cast<std::ptrdiff_t>(chunk) * idx,
                               buf.begin() + static_cast<std::ptrdiff_t>(chunk) * (idx + 1));
  };

  for (int step = 0; step < p - 1; ++step) {
    const int send_idx = (r - step + p) % p;
    const int recv_idx = (r - step - 1 + p) % p;
    const std::int64_t tag = comm.collective_tag(step);
    co_await comm.send(right, tag, block(data, send_idx), chunk_wire);
    std::optional<Message> msg = co_await comm.recv_ft(left, tag);
    if (msg && msg->data.size() == chunk) {
      for (std::size_t i = 0; i < chunk; ++i) {
        const std::size_t at = static_cast<std::size_t>(recv_idx) * chunk + i;
        data[at] = apply_op(op, data[at], msg->data[i]);
      }
    }
  }
  // After p-1 steps this rank's fully reduced chunk is (r + 1) % p... the
  // last recv_idx was (r - (p-2) - 1 + p) % p == (r + 1) % p.  MPI semantics
  // give rank r chunk r, so rotate with one final neighbour exchange.
  const int have = (r + 1) % p;
  if (have == r) co_return block(data, r);
  // The rank holding my chunk is my right neighbour (it "has" (right+1)%p ==
  // ... each rank q holds chunk (q+1)%p, so chunk r lives on rank (r-1+p)%p.
  const std::int64_t tag = comm.collective_tag(30000);
  co_await comm.send(right, tag, block(data, have), chunk_wire);
  co_return detail::data_or_nan(co_await comm.recv_ft(left, tag), chunk);
}

// Reduce to rank 0, then scatter — the small-message fallback.
sim::Task<std::vector<double>> reduce_scatter_reduce_then_scatter(Comm& comm,
                                                                  std::vector<double> data,
                                                                  std::size_t chunk, ReduceOp op,
                                                                  std::int64_t wire_bytes) {
  std::vector<double> reduced =
      co_await reduce(comm, std::move(data), op, 0, ReduceAlgo::kBinomial, wire_bytes);
  co_return co_await scatter(comm, std::move(reduced), chunk, 0, ScatterAlgo::kBinomial,
                             wire_bytes > 0 ? std::max<std::int64_t>(1, wire_bytes /
                                                                            comm.size())
                                            : 0);
}

}  // namespace

sim::Task<std::vector<double>> reduce_scatter(Comm& comm, std::vector<double> data,
                                              std::size_t chunk, ReduceOp op,
                                              ReduceScatterAlgo algo, std::int64_t wire_bytes) {
  if (data.size() != chunk * static_cast<std::size_t>(comm.size())) {
    throw std::invalid_argument("reduce_scatter: buffer must hold size() * chunk values");
  }
  comm.advance_collective();
  if (comm.size() == 1) return detail::own_result(std::move(data));
  switch (algo) {
    case ReduceScatterAlgo::kRing:
      return reduce_scatter_ring(comm, std::move(data), chunk, op, wire_bytes);
    case ReduceScatterAlgo::kReduceThenScatter:
      return reduce_scatter_reduce_then_scatter(comm, std::move(data), chunk, op, wire_bytes);
  }
  return detail::own_result(std::move(data));
}

}  // namespace hcs::simmpi
