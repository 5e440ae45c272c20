#include "trace/tracer.hpp"

#include <algorithm>
#include <stdexcept>

namespace hcs::trace {

const char* to_string(Category cat) {
  switch (cat) {
    case Category::kSim: return "sim";
    case Category::kNet: return "net";
    case Category::kColl: return "coll";
    case Category::kSync: return "sync";
    case Category::kBench: return "bench";
    case Category::kApp: return "app";
  }
  return "?";
}

const char* to_string(TimeSourceKind kind) {
  switch (kind) {
    case TimeSourceKind::kSimTime: return "sim";
    case TimeSourceKind::kLocalClock: return "local";
    case TimeSourceKind::kGlobalClock: return "global";
  }
  return "?";
}

Tracer::Tracer(std::size_t ring_capacity) : capacity_(ring_capacity) {
  if (ring_capacity < 1) throw std::invalid_argument("Tracer: ring capacity must be >= 1");
}

void Tracer::set_time_source(TimeSource* source, TimeSourceKind kind) {
  source_ = source;
  kind_ = kind;
}

void Tracer::push(int rank, TraceEvent ev) {
  const auto idx = static_cast<std::size_t>(std::max(rank, 0));
  if (idx >= rings_.size()) rings_.resize(idx + 1);
  Ring& ring = rings_[idx];
  ev.seq = seq_++;
  ++recorded_;
  if (ring.buf.size() < capacity_) {
    ring.buf.push_back(ev);
    return;
  }
  // Full: overwrite the oldest slot (ring.next points at it).
  ring.buf[ring.next] = ev;
  ring.next = (ring.next + 1) % capacity_;
  ring.wrapped = true;
  ++dropped_;
}

void Tracer::record_complete(int rank, Category cat, const char* name, double ts, double dur,
                             std::int64_t arg) {
  TraceEvent ev;
  ev.name = name;
  ev.ts = ts;
  ev.dur = dur < 0.0 ? 0.0 : dur;
  ev.arg = arg;
  ev.rank = rank;
  ev.cat = cat;
  ev.source = kind_;
  push(rank, ev);
}

void Tracer::record_instant(int rank, Category cat, const char* name, std::int64_t arg) {
  TraceEvent ev;
  ev.name = name;
  ev.ts = now();
  ev.dur = -1.0;
  ev.arg = arg;
  ev.rank = rank;
  ev.cat = cat;
  ev.source = kind_;
  push(rank, ev);
}

std::vector<TraceEvent> Tracer::merged_events() const {
  std::vector<TraceEvent> out;
  out.reserve(recorded_ > dropped_ ? static_cast<std::size_t>(recorded_ - dropped_) : 0);
  for (const Ring& ring : rings_) {
    if (!ring.wrapped) {
      out.insert(out.end(), ring.buf.begin(), ring.buf.end());
      continue;
    }
    // Oldest-to-newest: [next, end) then [0, next).
    out.insert(out.end(), ring.buf.begin() + static_cast<std::ptrdiff_t>(ring.next),
               ring.buf.end());
    out.insert(out.end(), ring.buf.begin(),
               ring.buf.begin() + static_cast<std::ptrdiff_t>(ring.next));
  }
  std::sort(out.begin(), out.end(), [](const TraceEvent& a, const TraceEvent& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.seq < b.seq;
  });
  return out;
}

void Tracer::absorb(const Tracer& other) {
  // Replay other's events in record (seq) order so the result is exactly what
  // recording them here in the first place would have produced.
  std::vector<TraceEvent> events;
  events.reserve(other.recorded_ > other.dropped_
                     ? static_cast<std::size_t>(other.recorded_ - other.dropped_)
                     : 0);
  for (const Ring& ring : other.rings_) {
    if (!ring.wrapped) {
      events.insert(events.end(), ring.buf.begin(), ring.buf.end());
      continue;
    }
    events.insert(events.end(), ring.buf.begin() + static_cast<std::ptrdiff_t>(ring.next),
                  ring.buf.end());
    events.insert(events.end(), ring.buf.begin(),
                  ring.buf.begin() + static_cast<std::ptrdiff_t>(ring.next));
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) { return a.seq < b.seq; });
  for (const TraceEvent& ev : events) push(ev.rank, ev);
  // What other's rings already overwrote would have been overwritten here
  // too (same per-rank capacity, same order), so it counts as dropped.
  recorded_ += other.dropped_;
  dropped_ += other.dropped_;
}

void Tracer::clear() {
  rings_.clear();
  seq_ = 0;
  recorded_ = 0;
  dropped_ = 0;
}

namespace {
thread_local Tracer* g_active_tracer = nullptr;
}  // namespace

Tracer* active_tracer() noexcept { return g_active_tracer; }
void install_tracer(Tracer* tracer) noexcept { g_active_tracer = tracer; }

ScopedTracer::ScopedTracer(Tracer* tracer) : previous_(g_active_tracer) {
  g_active_tracer = tracer;
}
ScopedTracer::~ScopedTracer() { g_active_tracer = previous_; }

}  // namespace hcs::trace
