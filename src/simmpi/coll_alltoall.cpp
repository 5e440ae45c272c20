// Alltoall (pairwise exchange).
#include "simmpi/coll_detail.hpp"

namespace hcs::simmpi {

namespace {

sim::Task<std::vector<double>> alltoall_pairwise(Comm& comm, std::vector<double> sendbuf,
                                                 std::size_t chunk, std::int64_t wire_bytes) {
  const int p = comm.size();
  const int r = comm.rank();
  std::vector<double> out(chunk * static_cast<std::size_t>(p));
  // Own block first.
  std::copy_n(sendbuf.begin() + static_cast<std::ptrdiff_t>(chunk) * r, chunk,
              out.begin() + static_cast<std::ptrdiff_t>(chunk) * r);
  for (int step = 1; step < p; ++step) {
    const int to = (r + step) % p;
    const int from = (r - step + p) % p;
    std::vector<double> block(
        sendbuf.begin() + static_cast<std::ptrdiff_t>(chunk) * to,
        sendbuf.begin() + static_cast<std::ptrdiff_t>(chunk) * (to + 1));
    const std::int64_t tag = comm.collective_tag(step);
    co_await comm.send(to, tag, std::move(block), detail::wire_size(wire_bytes, chunk));
    std::vector<double> got = detail::data_or_nan(co_await comm.recv_ft(from, tag), chunk);
    std::copy(got.begin(), got.end(),
              out.begin() + static_cast<std::ptrdiff_t>(chunk) * from);
  }
  co_return out;
}

}  // namespace

sim::Task<std::vector<double>> alltoall(Comm& comm, std::vector<double> sendbuf, std::size_t chunk,
                                        AlltoallAlgo algo, std::int64_t wire_bytes) {
  if (sendbuf.size() != chunk * static_cast<std::size_t>(comm.size())) {
    throw std::invalid_argument("alltoall: buffer must hold size() * chunk values");
  }
  comm.advance_collective();
  if (comm.size() == 1) return detail::own_result(std::move(sendbuf));
  switch (algo) {
    case AlltoallAlgo::kPairwise:
      return alltoall_pairwise(comm, std::move(sendbuf), chunk, wire_bytes);
  }
  return detail::own_result(std::move(sendbuf));
}

}  // namespace hcs::simmpi
