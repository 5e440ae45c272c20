// Allreduce algorithms (commutative operations).
#include "simmpi/coll_detail.hpp"

namespace hcs::simmpi {

namespace {

// MPICH-style recursive doubling with the even/odd fold for non-powers of 2.
sim::Task<std::vector<double>> allreduce_recursive_doubling(Comm& comm, std::vector<double> data,
                                                            ReduceOp op,
                                                            std::int64_t wire_bytes) {
  const int p = comm.size();
  const int r = comm.rank();
  const int pof2 = detail::pof2_floor(p);
  const int rem = p - pof2;
  const std::size_t unit = data.size();
  const std::int64_t wire = detail::wire_size(wire_bytes, unit);

  int newrank;
  if (r < 2 * rem) {
    if (r % 2 == 0) {
      co_await comm.send(r + 1, comm.collective_tag(100), data, wire);
      newrank = -1;
    } else {
      std::optional<Message> msg = co_await comm.recv_ft(r - 1, comm.collective_tag(100));
      if (msg) accumulate(op, data, msg->data);
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
      co_await comm.send(partner, tag, data, wire);
      std::optional<Message> msg = co_await comm.recv_ft(partner, tag);
      if (msg) accumulate(op, data, msg->data);
    }
  }

  if (r < 2 * rem) {
    if (r % 2 == 0) {
      std::optional<Message> msg = co_await comm.recv_ft(r + 1, comm.collective_tag(200));
      if (msg) data = std::move(msg->data);
    } else {
      co_await comm.send(r - 1, comm.collective_tag(200), data, wire);
    }
  }
  co_return data;
}

// Ring: reduce-scatter pass followed by an allgather pass, p-1 steps each.
sim::Task<std::vector<double>> allreduce_ring(Comm& comm, std::vector<double> data, ReduceOp op,
                                              std::int64_t wire_bytes) {
  const int p = comm.size();
  const int r = comm.rank();
  const int left = (r - 1 + p) % p;
  const int right = (r + 1) % p;
  const std::size_t n = data.size();
  const std::size_t chunk = (n + static_cast<std::size_t>(p) - 1) / static_cast<std::size_t>(p);
  const std::int64_t chunk_wire = std::max<std::int64_t>(
      8, detail::wire_size(wire_bytes, n) / static_cast<std::int64_t>(p));

  auto chunk_range = [&](int idx) {
    const std::size_t lo = std::min(n, static_cast<std::size_t>(idx) * chunk);
    const std::size_t hi = std::min(n, lo + chunk);
    return std::pair<std::size_t, std::size_t>(lo, hi);
  };

  // Reduce-scatter: after step s, rank r holds the partial for chunk
  // (r - s + p) % p reduced over s+1 contributions.
  for (int step = 0; step < p - 1; ++step) {
    const int send_idx = (r - step + p) % p;
    const int recv_idx = (r - step - 1 + p) % p;
    const auto [slo, shi] = chunk_range(send_idx);
    std::vector<double> block(data.begin() + static_cast<std::ptrdiff_t>(slo),
                              data.begin() + static_cast<std::ptrdiff_t>(shi));
    const std::int64_t tag = comm.collective_tag(step);
    co_await comm.send(right, tag, std::move(block), chunk_wire);
    std::optional<Message> msg = co_await comm.recv_ft(left, tag);
    const auto [rlo, rhi] = chunk_range(recv_idx);
    if (msg && msg->data.size() == rhi - rlo) {
      for (std::size_t i = rlo; i < rhi; ++i) {
        data[i] = apply_op(op, data[i], msg->data[i - rlo]);
      }
    }
  }
  // Allgather: circulate the fully-reduced chunks.
  for (int step = 0; step < p - 1; ++step) {
    const int send_idx = (r + 1 - step + p) % p;
    const int recv_idx = (r - step + p) % p;
    const auto [slo, shi] = chunk_range(send_idx);
    std::vector<double> block(data.begin() + static_cast<std::ptrdiff_t>(slo),
                              data.begin() + static_cast<std::ptrdiff_t>(shi));
    // Phases 20000+ keep these tags disjoint from the reduce-scatter pass
    // (whose phase equals the step index, < 16384) for any supported size.
    const std::int64_t tag = comm.collective_tag(20000 + step);
    co_await comm.send(right, tag, std::move(block), chunk_wire);
    std::vector<double> got =
        detail::data_or_nan(co_await comm.recv_ft(left, tag),
                            chunk_range(recv_idx).second - chunk_range(recv_idx).first);
    const auto [rlo, rhi] = chunk_range(recv_idx);
    for (std::size_t i = rlo; i < rhi; ++i) data[i] = got[i - rlo];
  }
  co_return data;
}

// Rabenseifner: recursive-halving reduce-scatter followed by a
// recursive-doubling allgather; the large-message workhorse in MPICH and
// Open MPI.  Non-powers-of-two fold into pof2 participants first.
sim::Task<std::vector<double>> allreduce_rabenseifner(Comm& comm, std::vector<double> data,
                                                      ReduceOp op, std::int64_t wire_bytes) {
  const int p = comm.size();
  const int r = comm.rank();
  const int pof2 = detail::pof2_floor(p);
  const int rem = p - pof2;
  const std::size_t n = data.size();
  const std::int64_t full_wire = detail::wire_size(wire_bytes, n);

  int newrank;
  if (r < 2 * rem) {
    if (r % 2 == 0) {
      co_await comm.send(r + 1, comm.collective_tag(300), data, full_wire);
      newrank = -1;
    } else {
      std::optional<Message> msg = co_await comm.recv_ft(r - 1, comm.collective_tag(300));
      if (msg) accumulate(op, data, msg->data);
      newrank = r / 2;
    }
  } else {
    newrank = r - rem;
  }

  if (newrank >= 0) {
    auto real = [&](int nr) { return nr < rem ? nr * 2 + 1 : nr + rem; };
    // Block boundaries: block b of pof2 covers [bounds[b], bounds[b+1]).
    std::vector<std::size_t> bounds(static_cast<std::size_t>(pof2) + 1);
    for (int b = 0; b <= pof2; ++b) {
      bounds[static_cast<std::size_t>(b)] =
          n * static_cast<std::size_t>(b) / static_cast<std::size_t>(pof2);
    }
    // Reduce-scatter by recursive halving: after the loop this rank owns the
    // fully reduced range [bounds[lo], bounds[hi]).
    int lo = 0, hi = pof2;
    int round = 0;
    while (hi - lo > 1) {
      const int mid = lo + (hi - lo) / 2;
      // The partner differs in exactly the bit that splits [lo, hi).
      const int partner_real = real(newrank ^ ((hi - lo) / 2));
      const bool keep_low = newrank < mid;
      const int send_lo = keep_low ? mid : lo;
      const int send_hi = keep_low ? hi : mid;
      std::vector<double> block(
          data.begin() + static_cast<std::ptrdiff_t>(bounds[static_cast<std::size_t>(send_lo)]),
          data.begin() + static_cast<std::ptrdiff_t>(bounds[static_cast<std::size_t>(send_hi)]));
      const std::int64_t tag = comm.collective_tag(310 + round);
      co_await comm.send(partner_real, tag, std::move(block),
                         detail::wire_size(
                             wire_bytes,
                             bounds[static_cast<std::size_t>(send_hi)] -
                                 bounds[static_cast<std::size_t>(send_lo)]));
      std::optional<Message> msg = co_await comm.recv_ft(partner_real, tag);
      const int recv_lo = keep_low ? lo : mid;
      if (msg) {
        for (std::size_t i = 0; i < msg->data.size(); ++i) {
          const std::size_t at = bounds[static_cast<std::size_t>(recv_lo)] + i;
          data[at] = apply_op(op, data[at], msg->data[i]);
        }
      }
      if (keep_low) hi = mid;
      else lo = mid;
      ++round;
    }
    // Allgather by recursive doubling: mirror the halving in reverse.
    std::vector<std::pair<int, int>> ranges;  // the [lo,hi) at each level, deepest first
    {
      int l2 = 0, h2 = pof2;
      for (int dist = pof2; dist > 1; dist /= 2) {
        const int mid = l2 + (h2 - l2) / 2;
        ranges.emplace_back(l2, h2);
        if (newrank < mid) h2 = mid;
        else l2 = mid;
      }
    }
    for (int level = static_cast<int>(ranges.size()) - 1; level >= 0; --level) {
      const auto [l2, h2] = ranges[static_cast<std::size_t>(level)];
      const int mid = l2 + (h2 - l2) / 2;
      const bool keep_low = newrank < mid;
      const int partner_real = real(newrank ^ ((h2 - l2) / 2));
      const int own_lo = keep_low ? l2 : mid;
      const int own_hi = keep_low ? mid : h2;
      std::vector<double> block(
          data.begin() + static_cast<std::ptrdiff_t>(bounds[static_cast<std::size_t>(own_lo)]),
          data.begin() + static_cast<std::ptrdiff_t>(bounds[static_cast<std::size_t>(own_hi)]));
      const std::int64_t tag = comm.collective_tag(340 + level);
      co_await comm.send(partner_real, tag, std::move(block),
                         detail::wire_size(wire_bytes,
                                           bounds[static_cast<std::size_t>(own_hi)] -
                                               bounds[static_cast<std::size_t>(own_lo)]));
      std::optional<Message> msg = co_await comm.recv_ft(partner_real, tag);
      const int other_lo = keep_low ? mid : l2;
      const int other_hi = keep_low ? h2 : mid;
      std::vector<double> got = detail::data_or_nan(
          std::move(msg), bounds[static_cast<std::size_t>(other_hi)] -
                              bounds[static_cast<std::size_t>(other_lo)]);
      std::copy(got.begin(), got.end(),
                data.begin() + static_cast<std::ptrdiff_t>(bounds[static_cast<std::size_t>(other_lo)]));
    }
  }

  if (r < 2 * rem) {
    if (r % 2 == 0) {
      std::optional<Message> msg = co_await comm.recv_ft(r + 1, comm.collective_tag(390));
      if (msg) data = std::move(msg->data);
    } else {
      co_await comm.send(r - 1, comm.collective_tag(390), data, full_wire);
    }
  }
  co_return data;
}

sim::Task<std::vector<double>> allreduce_reduce_bcast(Comm& comm, std::vector<double> data,
                                                      ReduceOp op, std::int64_t wire_bytes) {
  std::vector<double> reduced =
      co_await reduce(comm, std::move(data), op, 0, ReduceAlgo::kBinomial, wire_bytes);
  co_return co_await bcast(comm, std::move(reduced), 0, BcastAlgo::kBinomial, wire_bytes);
}

sim::Task<std::vector<double>> allreduce_by(Comm& comm, std::vector<double> data, ReduceOp op,
                                            AllreduceAlgo algo, std::int64_t wire_bytes) {
  if (comm.size() == 1) return detail::own_result(std::move(data));
  switch (algo) {
    case AllreduceAlgo::kRecursiveDoubling:
      return allreduce_recursive_doubling(comm, std::move(data), op, wire_bytes);
    case AllreduceAlgo::kRing: return allreduce_ring(comm, std::move(data), op, wire_bytes);
    case AllreduceAlgo::kReduceBcast:
      return allreduce_reduce_bcast(comm, std::move(data), op, wire_bytes);
    case AllreduceAlgo::kRabenseifner:
      return allreduce_rabenseifner(comm, std::move(data), op, wire_bytes);
  }
  return detail::own_result(std::move(data));
}

}  // namespace

sim::Task<std::vector<double>> allreduce(Comm& comm, std::vector<double> data, ReduceOp op,
                                         AllreduceAlgo algo, std::int64_t wire_bytes) {
  comm.advance_collective();
  return detail::in_span(allreduce_by(comm, std::move(data), op, algo, wire_bytes),
                         comm.my_world_rank(), "allreduce", wire_bytes);
}

}  // namespace hcs::simmpi
