#include "replay/record.hpp"

#include <cstring>

#include "replay/format.hpp"

namespace hcs::replay {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kSend: return "send";
    case EventKind::kRecv: return "recv";
    case EventKind::kRecvTimeout: return "recv-timeout";
    case EventKind::kBurst: return "burst";
    case EventKind::kClockRead: return "clock-read";
    case EventKind::kMembership: return "membership";
  }
  return "?";
}

std::uint64_t payload_digest(const std::vector<double>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (const double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;  // FNV prime
    }
  }
  return h;
}

std::vector<double> encode_burst(const simmpi::BurstResult& result) {
  std::vector<double> values;
  values.reserve(4 + 3 * result.samples.size());
  values.push_back(static_cast<double>(result.requested));
  values.push_back(static_cast<double>(result.lost));
  values.push_back(static_cast<double>(result.retries));
  values.push_back(static_cast<double>(result.samples.size()));
  for (const simmpi::PingSample& s : result.samples) {
    values.push_back(s.client_send);
    values.push_back(s.ref_reply);
    values.push_back(s.client_recv);
  }
  return values;
}

simmpi::BurstResult decode_burst(const std::vector<double>& values) {
  simmpi::BurstResult result;
  if (values.size() < 4) return result;
  result.requested = static_cast<int>(values[0]);
  result.lost = static_cast<int>(values[1]);
  result.retries = static_cast<int>(values[2]);
  const auto nsamples = static_cast<std::size_t>(values[3]);
  result.samples.reserve(nsamples);
  for (std::size_t i = 0; i < nsamples && 4 + 3 * i + 2 < values.size(); ++i) {
    simmpi::PingSample s;
    s.client_send = values[4 + 3 * i];
    s.ref_reply = values[4 + 3 * i + 1];
    s.client_recv = values[4 + 3 * i + 2];
    result.samples.push_back(s);
  }
  return result;
}

RecordedWorld& Recorder::begin_world(WorldInfo info) {
  if (info.label.empty() && !pending_label_.empty()) info.label = pending_label_;
  pending_label_.clear();
  worlds_.push_back(std::make_unique<RecordedWorld>(std::move(info)));
  return *worlds_.back();
}

void Recorder::absorb(Recorder& other) {
  for (auto& world : other.worlds_) worlds_.push_back(std::move(world));
  other.worlds_.clear();
}

Recording Recorder::take() && {
  Recording out;
  out.worlds.reserve(worlds_.size());
  for (auto& world : worlds_) out.worlds.push_back(std::move(*world));
  worlds_.clear();
  return out;
}

namespace {
thread_local Recorder* t_recorder = nullptr;
}  // namespace

Recorder* active_recorder() noexcept { return t_recorder; }

void install_recorder(Recorder* recorder) noexcept { t_recorder = recorder; }

ScopedRecorder::ScopedRecorder(Recorder* recorder) : previous_(t_recorder) {
  t_recorder = recorder;
}

ScopedRecorder::~ScopedRecorder() { t_recorder = previous_; }

}  // namespace hcs::replay
