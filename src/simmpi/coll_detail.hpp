// Shared helpers for the collective algorithm implementations.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "simmpi/collectives.hpp"
#include "simmpi/message.hpp"
#include "trace/span.hpp"

namespace hcs::simmpi::detail {

/// Largest power of two <= p (p >= 1).
inline int pof2_floor(int p) {
  int v = 1;
  while (v * 2 <= p) v *= 2;
  return v;
}

/// Wire bytes for a message carrying `blocks` blocks whose unit payload is
/// `unit_values` doubles, honouring a caller override of the per-block size.
inline std::int64_t wire_size(std::int64_t wire_bytes_override, std::size_t unit_values,
                              std::size_t blocks = 1) {
  const std::int64_t unit = wire_bytes_override > 0
                                ? wire_bytes_override
                                : static_cast<std::int64_t>(unit_values * sizeof(double));
  return std::max<std::int64_t>(1, unit * static_cast<std::int64_t>(blocks));
}

inline void check_root(const Comm& comm, int root) {
  if (root < 0 || root >= comm.size()) {
    throw std::invalid_argument("collective: root " + std::to_string(root) + " out of range");
  }
}

/// Rank arithmetic relative to a root (MPI's "relative rank" trick).
inline int rel(int rank, int root, int p) { return (rank - root + p) % p; }
inline int abs_rank(int relative, int root, int p) { return (relative + root) % p; }

/// Crash-model data substitution for quorum collectives: the payload when the
/// peer's block arrived intact, otherwise `expect` quiet-NaNs.  Survivors keep
/// deterministic buffer shapes regardless of who died; a dead rank's slots
/// read as NaN downstream, which the sync layer turns into per-rank health.
inline std::vector<double> data_or_nan(std::optional<Message>&& msg, std::size_t expect) {
  if (msg && msg->data.size() == expect) return std::move(msg->data);
  return std::vector<double>(expect, std::numeric_limits<double>::quiet_NaN());
}

/// A collective's result on a one-rank communicator: its own input.
inline sim::Task<std::vector<double>> own_result(std::vector<double> data) { co_return data; }
inline sim::Task<void> no_op() { co_return; }

template <typename T>
sim::Task<T> spanned(sim::Task<T> op, int rank, const char* name, std::int64_t arg) {
  HCS_TRACE_SCOPE(Coll, rank, name, arg);
  co_return co_await op;
}

/// `op` inside a Coll span over the whole operation when a tracer is
/// installed.  Untraced, `op` itself: a dispatcher returns its algorithm's
/// Task instead of awaiting it, so the collective costs no frame of its own.
template <typename T>
sim::Task<T> in_span(sim::Task<T> op, int rank, const char* name, std::int64_t arg) {
  if (trace::active_tracer() == nullptr) return op;
  return spanned(std::move(op), rank, name, arg);
}

}  // namespace hcs::simmpi::detail
