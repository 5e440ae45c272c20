// Scatter algorithms.  The root provides size() blocks of `chunk` values
// (communicator-rank order); every rank returns its own block.  HCA2 uses
// this to distribute the merged clock models (paper Fig. 1a).
#include "simmpi/coll_detail.hpp"

namespace hcs::simmpi {

namespace {

sim::Task<std::vector<double>> scatter_linear(Comm& comm, std::vector<double> all,
                                              std::size_t chunk, int root,
                                              std::int64_t wire_bytes) {
  const int p = comm.size();
  const int r = comm.rank();
  if (r != root) {
    co_return detail::data_or_nan(co_await comm.recv_ft(root, comm.collective_tag(0)), chunk);
  }
  for (int dst = 0; dst < p; ++dst) {
    if (dst == root) continue;
    std::vector<double> block(
        all.begin() + static_cast<std::ptrdiff_t>(chunk) * dst,
        all.begin() + static_cast<std::ptrdiff_t>(chunk) * (dst + 1));
    co_await comm.send(dst, comm.collective_tag(0), std::move(block),
                       detail::wire_size(wire_bytes, chunk));
  }
  co_return std::vector<double>(all.begin() + static_cast<std::ptrdiff_t>(chunk) * root,
                                all.begin() + static_cast<std::ptrdiff_t>(chunk) * (root + 1));
}

// Binomial fan-out: the inverse of the binomial gather.  Each node receives
// the contiguous block of relative ranks it is responsible for, keeps its
// own chunk and forwards sub-blocks down the tree.
sim::Task<std::vector<double>> scatter_binomial(Comm& comm, std::vector<double> all,
                                                std::size_t chunk, int root,
                                                std::int64_t wire_bytes) {
  const int p = comm.size();
  const int relative = detail::rel(comm.rank(), root, p);

  // seg holds blocks for relative ranks [relative, relative + held).
  std::vector<double> seg;
  int held = 0;
  int recv_mask = 0;  // the mask at which this rank received its segment

  if (relative == 0) {
    // Rotate the root's buffer into relative order.
    seg.resize(chunk * static_cast<std::size_t>(p));
    for (int rr = 0; rr < p; ++rr) {
      const int absolute = detail::abs_rank(rr, root, p);
      std::copy_n(all.begin() + static_cast<std::ptrdiff_t>(chunk) * absolute, chunk,
                  seg.begin() + static_cast<std::ptrdiff_t>(chunk) * rr);
    }
    held = p;
    recv_mask = detail::pof2_floor(p) * 2;
  } else {
    int mask = 1;
    while (mask < p) {
      if ((relative & mask) != 0) {
        // This rank's subtree size is fixed by the tree shape; a dead parent
        // yields a NaN segment of the same shape, so forwarding below still
        // happens and no descendant is left waiting.
        const int my_blocks = std::min(mask, p - relative);
        std::optional<Message> msg =
            co_await comm.recv_ft(detail::abs_rank(relative - mask, root, p),
                                  comm.collective_tag(0));
        seg = detail::data_or_nan(std::move(msg),
                                  chunk * static_cast<std::size_t>(my_blocks));
        held = my_blocks;
        recv_mask = mask;
        break;
      }
      mask <<= 1;
    }
  }

  for (int mask = recv_mask >> 1; mask > 0; mask >>= 1) {
    const int child_rel = relative + mask;
    if (child_rel < p && child_rel < relative + held) {
      const int child_blocks = std::min(held - mask, mask);
      std::vector<double> block(
          seg.begin() + static_cast<std::ptrdiff_t>(chunk) * mask,
          seg.begin() + static_cast<std::ptrdiff_t>(chunk) * (mask + child_blocks));
      co_await comm.send(detail::abs_rank(child_rel, root, p), comm.collective_tag(0),
                         std::move(block),
                         detail::wire_size(wire_bytes, chunk,
                                           static_cast<std::size_t>(child_blocks)));
      held = mask;
    }
  }
  seg.resize(chunk);
  co_return seg;
}

}  // namespace

sim::Task<std::vector<double>> scatter(Comm& comm, std::vector<double> all, std::size_t chunk,
                                       int root, ScatterAlgo algo, std::int64_t wire_bytes) {
  detail::check_root(comm, root);
  if (comm.rank() == root && all.size() != chunk * static_cast<std::size_t>(comm.size())) {
    throw std::invalid_argument("scatter: root buffer must hold size() * chunk values");
  }
  comm.advance_collective();
  if (comm.size() == 1) return detail::own_result(std::move(all));
  switch (algo) {
    case ScatterAlgo::kLinear: return scatter_linear(comm, std::move(all), chunk, root, wire_bytes);
    case ScatterAlgo::kBinomial:
      return scatter_binomial(comm, std::move(all), chunk, root, wire_bytes);
  }
  return detail::own_result(std::move(all));
}

}  // namespace hcs::simmpi
