#include "replay/format.hpp"

#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace hcs::replay {

namespace {

constexpr char kMagic[4] = {'H', 'C', 'S', 'R'};

// --- writer -----------------------------------------------------------------

void put_u8(std::string& out, std::uint8_t v) { out.push_back(static_cast<char>(v)); }

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xffU));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xffU));
}

void put_i32(std::string& out, std::int32_t v) { put_u32(out, static_cast<std::uint32_t>(v)); }
void put_i64(std::string& out, std::int64_t v) { put_u64(out, static_cast<std::uint64_t>(v)); }

void put_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

void put_event(std::string& out, const Event& ev) {
  put_u8(out, static_cast<std::uint8_t>(ev.kind));
  put_u8(out, ev.flags);
  put_i32(out, ev.peer);
  put_i64(out, ev.tag);
  put_i64(out, ev.bytes);
  put_f64(out, ev.time);
  put_f64(out, ev.aux0);
  put_f64(out, ev.aux1);
  put_u64(out, ev.digest);
  put_u32(out, static_cast<std::uint32_t>(ev.values.size()));
  for (const double v : ev.values) put_f64(out, v);
}

// --- reader -----------------------------------------------------------------

struct Cursor {
  const std::string* bytes;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    if (pos + n > bytes->size()) {
      throw std::runtime_error("recording truncated at byte " + std::to_string(pos) +
                               " (need " + std::to_string(n) + " more)");
    }
  }

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>((*bytes)[pos++]);
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>((*bytes)[pos + static_cast<std::size_t>(i)]))
           << (8 * i);
    }
    pos += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>((*bytes)[pos + static_cast<std::size_t>(i)]))
           << (8 * i);
    }
    pos += 8;
    return v;
  }

  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s = bytes->substr(pos, n);
    pos += n;
    return s;
  }
};

Event parse_event(Cursor& c, std::uint32_t version) {
  Event ev;
  const std::uint8_t kind = c.u8();
  const std::uint8_t max_kind = version >= 2 ? 6 : 5;  // v2 adds kMembership
  if (kind < 1 || kind > max_kind) {
    throw std::runtime_error("recording: bad event kind " + std::to_string(kind) +
                             " for format version " + std::to_string(version) +
                             " at byte " + std::to_string(c.pos - 1));
  }
  ev.kind = static_cast<EventKind>(kind);
  ev.flags = c.u8();
  ev.peer = c.i32();
  ev.tag = c.i64();
  ev.bytes = c.i64();
  ev.time = c.f64();
  ev.aux0 = c.f64();
  ev.aux1 = c.f64();
  ev.digest = c.u64();
  const std::uint32_t nvalues = c.u32();
  c.need(static_cast<std::size_t>(nvalues) * 8);
  ev.values.reserve(nvalues);
  for (std::uint32_t i = 0; i < nvalues; ++i) ev.values.push_back(c.f64());
  return ev;
}

}  // namespace

std::string serialize(const Recorder& recorder) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  put_u32(out, kFormatVersion);
  put_u32(out, static_cast<std::uint32_t>(recorder.world_count()));
  for (std::size_t w = 0; w < recorder.world_count(); ++w) {
    const RecordedWorld& world = recorder.world(w);
    put_u64(out, world.info.seed);
    put_i32(out, world.info.nranks);
    put_u64(out, world.info.fault_seed);
    put_str(out, world.info.machine);
    put_str(out, world.info.fault_plan);
    put_str(out, world.info.label);
    for (const std::vector<Event>& rank_events : world.ranks) {
      put_u64(out, rank_events.size());
      for (const Event& ev : rank_events) put_event(out, ev);
    }
    put_u64(out, world.total_events());
  }
  return out;
}

Recording parse(const std::string& bytes) {
  Cursor c{&bytes};
  c.need(sizeof(kMagic));
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("not a recording: bad magic (expected \"HCSR\")");
  }
  c.pos = sizeof(kMagic);
  const std::uint32_t version = c.u32();
  if (version < kMinFormatVersion || version > kFormatVersion) {
    throw std::runtime_error("recording format version " + std::to_string(version) +
                             " not supported (this build reads versions " +
                             std::to_string(kMinFormatVersion) + ".." +
                             std::to_string(kFormatVersion) + ")");
  }
  // Counts come from untrusted bytes: bound each by what the remaining bytes
  // can hold before allocating for it.  A world takes at least 40 bytes (its
  // header with empty strings, and the trailer), a rank at least 8 (its
  // event count).
  const std::uint32_t nworlds = c.u32();
  if (nworlds > (bytes.size() - c.pos) / 40) {
    throw std::runtime_error("recording: implausible world count " + std::to_string(nworlds));
  }
  Recording rec;
  rec.worlds.reserve(nworlds);
  for (std::uint32_t w = 0; w < nworlds; ++w) {
    WorldInfo info;
    info.seed = c.u64();
    info.nranks = c.i32();
    if (info.nranks < 0 || info.nranks > (1 << 24)) {
      throw std::runtime_error("recording: implausible rank count " +
                               std::to_string(info.nranks));
    }
    info.fault_seed = c.u64();
    info.machine = c.str();
    info.fault_plan = c.str();
    info.label = c.str();
    if (static_cast<std::size_t>(info.nranks) > (bytes.size() - c.pos) / 8) {
      throw std::runtime_error("recording: rank count " + std::to_string(info.nranks) +
                               " exceeds the remaining " + std::to_string(bytes.size() - c.pos) +
                               " bytes");
    }
    RecordedWorld world(std::move(info));
    for (auto& rank_events : world.ranks) {
      const std::uint64_t nevents = c.u64();
      // Each event is at least 47 bytes on the wire; reject counts the
      // remaining bytes cannot possibly hold before reserving.
      if (nevents > (bytes.size() - c.pos) / 47 + 1) {
        throw std::runtime_error("recording: implausible event count " +
                                 std::to_string(nevents));
      }
      rank_events.reserve(static_cast<std::size_t>(nevents));
      for (std::uint64_t e = 0; e < nevents; ++e) rank_events.push_back(parse_event(c, version));
    }
    const std::uint64_t total = c.u64();
    if (total != world.total_events()) {
      throw std::runtime_error("recording: world " + std::to_string(w) +
                               " event-count trailer mismatch");
    }
    rec.worlds.push_back(std::move(world));
  }
  if (c.pos != bytes.size()) {
    throw std::runtime_error("recording: " + std::to_string(bytes.size() - c.pos) +
                             " trailing bytes after last world");
  }
  return rec;
}

bool save(const std::string& path, const Recorder& recorder) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  const std::string bytes = serialize(recorder);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

Recording load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open recording: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) throw std::runtime_error("cannot read recording: " + path);
  return parse(buf.str());
}

}  // namespace hcs::replay
