// Record model + versioned binary format: digest stability, burst payload
// encoding, serialize/parse round-trips, and corruption rejection
// (docs/record-replay.md has the byte-level spec).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "replay/format.hpp"
#include "replay/record.hpp"

namespace hcs::replay {
namespace {

Event make_event(EventKind kind, double time, std::vector<double> values = {}) {
  Event ev;
  ev.kind = kind;
  ev.peer = 3;
  ev.tag = 17;
  ev.bytes = static_cast<std::int64_t>(values.size() * sizeof(double));
  ev.time = time;
  ev.digest = payload_digest(values);
  ev.values = std::move(values);
  return ev;
}

Recorder make_recorder() {
  Recorder recorder;
  WorldInfo info;
  info.seed = 42;
  info.nranks = 2;
  info.fault_seed = 9;
  info.machine = "testbox(2x1)";
  info.fault_plan = "crash:rank=1,at=0.002";
  info.label = "unit";
  RecordedWorld& world = recorder.begin_world(std::move(info));
  world.append(0, make_event(EventKind::kSend, 0.25, {1.0, 2.0}));
  world.append(0, make_event(EventKind::kRecv, 0.5, {3.0, -0.0}));
  world.append(1, make_event(EventKind::kRecvTimeout, 0.75));
  world.append(1, make_event(EventKind::kClockRead, 1.0, {1.0000003}));
  WorldInfo second;
  second.seed = 43;
  second.nranks = 1;
  second.machine = "testbox(1x1)";
  recorder.begin_world(std::move(second));
  return recorder;
}

TEST(PayloadDigest, StableAndBitSensitive) {
  EXPECT_EQ(payload_digest({}), 0xcbf29ce484222325ULL);  // FNV-1a offset basis
  const std::uint64_t d = payload_digest({1.0, 2.0});
  EXPECT_EQ(payload_digest({1.0, 2.0}), d);
  EXPECT_NE(payload_digest({2.0, 1.0}), d);
  EXPECT_NE(payload_digest({0.0}), payload_digest({-0.0}))
      << "bit-exactness oracle must distinguish signed zeros";
}

TEST(BurstCodec, RoundTrips) {
  simmpi::BurstResult burst;
  burst.requested = 10;
  burst.lost = 2;
  burst.retries = 3;
  burst.samples.push_back({0.001, 0.0015, 0.002});
  burst.samples.push_back({0.003, 0.0035, 0.004});
  const std::vector<double> encoded = encode_burst(burst);
  const simmpi::BurstResult decoded = decode_burst(encoded);
  EXPECT_EQ(decoded.requested, burst.requested);
  EXPECT_EQ(decoded.lost, burst.lost);
  EXPECT_EQ(decoded.retries, burst.retries);
  ASSERT_EQ(decoded.samples.size(), burst.samples.size());
  for (std::size_t i = 0; i < burst.samples.size(); ++i) {
    EXPECT_EQ(decoded.samples[i].client_send, burst.samples[i].client_send);
    EXPECT_EQ(decoded.samples[i].ref_reply, burst.samples[i].ref_reply);
    EXPECT_EQ(decoded.samples[i].client_recv, burst.samples[i].client_recv);
  }
}

TEST(Format, SerializeParseRoundTrip) {
  const Recorder recorder = make_recorder();
  const std::string bytes = serialize(recorder);
  const Recording parsed = parse(bytes);
  ASSERT_EQ(parsed.worlds.size(), 2u);
  EXPECT_EQ(parsed.worlds[0].info, recorder.world(0).info);
  EXPECT_EQ(parsed.worlds[1].info, recorder.world(1).info);
  ASSERT_EQ(parsed.worlds[0].ranks.size(), 2u);
  EXPECT_EQ(parsed.worlds[0].ranks[0], recorder.world(0).ranks[0]);
  EXPECT_EQ(parsed.worlds[0].ranks[1], recorder.world(0).ranks[1]);
  EXPECT_EQ(parsed.worlds[0].total_events(), 4u);
}

TEST(Format, SerializationIsDeterministic) {
  const std::string a = serialize(make_recorder());
  const std::string b = serialize(make_recorder());
  EXPECT_EQ(a, b);
}

TEST(Format, RejectsBadMagic) {
  std::string bytes = serialize(make_recorder());
  bytes[0] = 'X';
  EXPECT_THROW(parse(bytes), std::runtime_error);
}

TEST(Format, RejectsUnknownVersion) {
  std::string bytes = serialize(make_recorder());
  bytes[4] = 99;  // the u32 version field follows the 4-byte magic
  EXPECT_THROW(parse(bytes), std::runtime_error);
}

TEST(Format, RejectsTruncation) {
  const std::string bytes = serialize(make_recorder());
  for (const std::size_t cut : {std::size_t{3}, std::size_t{9}, bytes.size() / 2}) {
    EXPECT_THROW(parse(bytes.substr(0, cut)), std::runtime_error) << "cut at " << cut;
  }
}

TEST(Format, RejectsTrailingGarbage) {
  std::string bytes = serialize(make_recorder());
  bytes += '\0';
  EXPECT_THROW(parse(bytes), std::runtime_error);
}

// Little-endian header of a hostile recording: magic, format version, and a
// world count.
std::string hostile_header(std::uint32_t nworlds) {
  std::string out = "HCSR";
  for (const std::uint32_t v : {kFormatVersion, nworlds}) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xffU));
  }
  return out;
}

// Counts the remaining bytes cannot hold are rejected by name, before any
// allocation sized by them (a typed error, not std::bad_alloc or hundreds of
// MiB of empty rank buffers).
void expect_count_rejected(const std::string& bytes, const std::string& what) {
  try {
    (void)parse(bytes);
    ADD_FAILURE() << "parsed a recording claiming an impossible " << what;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

TEST(Format, RejectsWorldCountBeyondTheBytes) {
  const std::string bytes = hostile_header(0xFFFFFFFFu);
  ASSERT_EQ(bytes.size(), 12u);
  expect_count_rejected(bytes, "world count");
}

TEST(Format, RejectsRankCountBeyondTheBytes) {
  // One world claiming 2^24 ranks: seed, rank count, fault seed, and three
  // empty strings make 44 bytes in all.
  std::string bytes = hostile_header(1);
  bytes.append(8, '\0');                        // seed
  bytes += std::string("\0\0\0\x01", 4);      // nranks = 1 << 24
  bytes.append(8 + 3 * 4, '\0');                // fault seed, string lengths
  ASSERT_EQ(bytes.size(), 44u);
  expect_count_rejected(bytes, "count");
  // With enough padding to pass the world bound, the rank bound trips.
  bytes.append(64, '\0');
  expect_count_rejected(bytes, "rank count");
}

TEST(Recorder, AbsorbMovesWorldsInOrder) {
  Recorder a;
  WorldInfo first;
  first.seed = 1;
  first.nranks = 1;
  a.begin_world(std::move(first));
  Recorder b;
  WorldInfo second;
  second.seed = 2;
  second.nranks = 1;
  b.begin_world(std::move(second));
  a.absorb(b);
  ASSERT_EQ(a.world_count(), 2u);
  EXPECT_EQ(a.world(0).info.seed, 1u);
  EXPECT_EQ(a.world(1).info.seed, 2u);
  EXPECT_EQ(b.world_count(), 0u);
}

TEST(Recorder, PendingLabelStampsNextWorld) {
  Recorder recorder;
  recorder.set_pending_label("scenario-name");
  WorldInfo info;
  info.nranks = 1;
  EXPECT_EQ(recorder.begin_world(std::move(info)).info.label, "scenario-name");
  WorldInfo next;
  next.nranks = 1;
  EXPECT_EQ(recorder.begin_world(std::move(next)).info.label, "");
}

}  // namespace
}  // namespace hcs::replay
