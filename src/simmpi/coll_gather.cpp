// Gather algorithms.  All ranks contribute equal-length vectors; the root
// ends with the concatenation in communicator-rank order.
#include "simmpi/coll_detail.hpp"

namespace hcs::simmpi {

namespace {

sim::Task<std::vector<double>> gather_linear(Comm& comm, std::vector<double> mine, int root,
                                             std::int64_t wire_bytes) {
  const int p = comm.size();
  const int r = comm.rank();
  const std::size_t unit = mine.size();
  if (r != root) {
    co_await comm.send(root, comm.collective_tag(0), std::move(mine),
                       detail::wire_size(wire_bytes, unit));
    co_return std::vector<double>{};
  }
  std::vector<double> out(unit * static_cast<std::size_t>(p));
  std::copy(mine.begin(), mine.end(), out.begin() + static_cast<std::ptrdiff_t>(unit) * root);
  for (int src = 0; src < p; ++src) {
    if (src == root) continue;
    std::vector<double> got =
        detail::data_or_nan(co_await comm.recv_ft(src, comm.collective_tag(0)), unit);
    std::copy(got.begin(), got.end(), out.begin() + static_cast<std::ptrdiff_t>(unit) * src);
  }
  co_return out;
}

// Binomial fan-in: each subtree root forwards the contiguous block of
// relative ranks [relative, relative + held) it has accumulated.
sim::Task<std::vector<double>> gather_binomial(Comm& comm, std::vector<double> mine, int root,
                                               std::int64_t wire_bytes) {
  const int p = comm.size();
  const int relative = detail::rel(comm.rank(), root, p);
  const std::size_t unit = mine.size();

  // Buffer indexed by relative rank; `held` counts accumulated blocks.
  std::vector<double> buf(unit * static_cast<std::size_t>(p), 0.0);
  std::copy(mine.begin(), mine.end(), buf.begin() + static_cast<std::ptrdiff_t>(unit) * relative);
  int held = 1;

  for (int mask = 1; mask < p; mask <<= 1) {
    if ((relative & mask) == 0) {
      const int child_rel = relative | mask;
      if (child_rel < p) {
        // The child's subtree size is fixed by the tree shape, so the block
        // count is known without looking at the payload — a dead child just
        // leaves its subtree's slots NaN.
        const int child_blocks = std::min(mask, p - child_rel);
        std::optional<Message> msg =
            co_await comm.recv_ft(detail::abs_rank(child_rel, root, p), comm.collective_tag(0));
        std::vector<double> got = detail::data_or_nan(
            std::move(msg), unit * static_cast<std::size_t>(child_blocks));
        std::copy(got.begin(), got.end(),
                  buf.begin() + static_cast<std::ptrdiff_t>(unit) * child_rel);
        held += unit == 0 ? 0 : child_blocks;
      }
    } else {
      const int parent_rel = relative & ~mask;
      std::vector<double> block(
          buf.begin() + static_cast<std::ptrdiff_t>(unit) * relative,
          buf.begin() + static_cast<std::ptrdiff_t>(unit) * (relative + held));
      co_await comm.send(detail::abs_rank(parent_rel, root, p), comm.collective_tag(0),
                         std::move(block),
                         detail::wire_size(wire_bytes, unit, static_cast<std::size_t>(held)));
      co_return std::vector<double>{};
    }
  }
  // Root: rotate from relative order back to absolute communicator order.
  std::vector<double> out(unit * static_cast<std::size_t>(p));
  for (int rr = 0; rr < p; ++rr) {
    const int absolute = detail::abs_rank(rr, root, p);
    std::copy_n(buf.begin() + static_cast<std::ptrdiff_t>(unit) * rr, unit,
                out.begin() + static_cast<std::ptrdiff_t>(unit) * absolute);
  }
  co_return out;
}

}  // namespace

sim::Task<std::vector<double>> gather(Comm& comm, std::vector<double> mine, int root,
                                      GatherAlgo algo, std::int64_t wire_bytes) {
  detail::check_root(comm, root);
  comm.advance_collective();
  if (comm.size() == 1) return detail::own_result(std::move(mine));
  switch (algo) {
    case GatherAlgo::kLinear: return gather_linear(comm, std::move(mine), root, wire_bytes);
    case GatherAlgo::kBinomial: return gather_binomial(comm, std::move(mine), root, wire_bytes);
  }
  return detail::own_result(std::move(mine));
}

}  // namespace hcs::simmpi
