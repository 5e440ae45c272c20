#include "replay/bisect.hpp"

#include <algorithm>
#include <sstream>

namespace hcs::replay {

namespace {

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s = "0x";
  for (int shift = 60; shift >= 0; shift -= 4) s.push_back(digits[(v >> shift) & 0xfU]);
  return s;
}

struct RankDivergence {
  int rank = -1;
  std::size_t index = 0;
  double time = 0.0;
  std::string field;
  std::string detail;
};

// First index at which the two streams differ; nullopt when identical.
std::optional<RankDivergence> diff_rank(int rank, const std::vector<Event>& a,
                                        const std::vector<Event>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] == b[i]) continue;
    RankDivergence d;
    d.rank = rank;
    d.index = i;
    d.time = std::min(a[i].time, b[i].time);
    d.field = differing_field(a[i], b[i]);
    d.detail = "a: " + describe_event(a[i]) + "\n  b: " + describe_event(b[i]);
    return d;
  }
  if (a.size() == b.size()) return std::nullopt;
  RankDivergence d;
  d.rank = rank;
  d.index = n;
  const std::vector<Event>& longer = a.size() > b.size() ? a : b;
  d.time = longer[n].time;
  d.field = "count";
  d.detail = std::string("a: ") + (a.size() > n ? describe_event(a[n]) : "<absent>") +
             "\n  b: " + (b.size() > n ? describe_event(b[n]) : "<absent>") + "\n  (" +
             std::to_string(a.size()) + " vs " + std::to_string(b.size()) + " events)";
  return d;
}

}  // namespace

const char* differing_field(const Event& a, const Event& b, unsigned fields) {
  const auto differs = [fields](EventField f, bool unequal) {
    return (fields & f) != 0 && unequal;
  };
  if (differs(kFieldKind, a.kind != b.kind)) return "kind";
  if (differs(kFieldPeer, a.peer != b.peer)) return "peer";
  if (differs(kFieldTag, a.tag != b.tag)) return "tag";
  if (differs(kFieldFlags, a.flags != b.flags)) return "flags";
  if (differs(kFieldBytes, a.bytes != b.bytes)) return "bytes";
  if (differs(kFieldTime, a.time != b.time)) return "time";
  if (differs(kFieldMessageTimes, a.aux0 != b.aux0 || a.aux1 != b.aux1)) return "message-times";
  if (differs(kFieldDigest, a.digest != b.digest)) return "payload";
  if (differs(kFieldValues, a.values != b.values)) return "payload";
  return nullptr;
}

std::string describe_event(const Event& ev) {
  std::ostringstream os;
  os.precision(17);
  os << to_string(ev.kind) << " peer=" << ev.peer << " tag=" << ev.tag;
  if (ev.kind == EventKind::kSend || ev.kind == EventKind::kRecv) os << " bytes=" << ev.bytes;
  if (ev.kind == EventKind::kBurst) {
    os << " role=" << ((ev.flags & 1U) != 0 ? "client" : "reference");
  }
  if (ev.kind == EventKind::kMembership) os << " flags=" << static_cast<int>(ev.flags);
  os << " time=" << ev.time << " values=" << ev.values.size()
     << " digest=" << hex64(ev.digest);
  return os.str();
}

std::optional<Divergence> first_divergence(const Recording& a, const Recording& b) {
  const std::size_t nworlds = std::min(a.worlds.size(), b.worlds.size());
  std::optional<Divergence> header_only;
  for (std::size_t w = 0; w < nworlds; ++w) {
    const RecordedWorld& wa = a.worlds[w];
    const RecordedWorld& wb = b.worlds[w];
    if (wa.info.nranks != wb.info.nranks) {
      Divergence d;
      d.world = w;
      d.field = "nranks";
      d.detail = "a: " + std::to_string(wa.info.nranks) + " ranks, b: " +
                 std::to_string(wb.info.nranks) + " ranks";
      return d;
    }
    if (!header_only && !(wa.info == wb.info)) {
      Divergence d;
      d.world = w;
      d.field = "header";
      d.detail = "a: seed=" + std::to_string(wa.info.seed) + " machine=\"" + wa.info.machine +
                 "\" faults=\"" + wa.info.fault_plan + "\"\n  b: seed=" +
                 std::to_string(wb.info.seed) + " machine=\"" + wb.info.machine +
                 "\" faults=\"" + wb.info.fault_plan + "\"";
      header_only = d;
    }
    // Earliest diverging event across this world's ranks, by
    // (sim-time, rank, index).
    std::optional<RankDivergence> best;
    for (int r = 0; r < wa.info.nranks; ++r) {
      const auto d = diff_rank(r, wa.ranks[static_cast<std::size_t>(r)],
                               wb.ranks[static_cast<std::size_t>(r)]);
      if (!d) continue;
      if (!best || d->time < best->time ||
          (d->time == best->time && d->rank < best->rank)) {
        best = d;
      }
    }
    if (best) {
      Divergence d;
      d.world = w;
      d.rank = best->rank;
      d.index = best->index;
      d.time = best->time;
      d.field = best->field;
      d.detail = best->detail;
      return d;
    }
  }
  if (a.worlds.size() != b.worlds.size()) {
    Divergence d;
    d.world = nworlds;
    d.field = "world-count";
    d.detail = "a: " + std::to_string(a.worlds.size()) + " worlds, b: " +
               std::to_string(b.worlds.size()) + " worlds";
    return d;
  }
  return header_only;
}

}  // namespace hcs::replay
