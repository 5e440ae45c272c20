// Seeded mutation test of the .hcsr parser over the committed incidents.
// Every mutant — byte flips, truncations, and count fields set to 0 or to
// huge values — must either parse or raise std::runtime_error: never
// std::bad_alloc, never an allocation sized by an untrusted count, never
// undefined behaviour (the sanitizer jobs run this binary).  The mutant set
// is a pure function of the incident bytes and a fixed seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "replay/format.hpp"
#include "sim/rng.hpp"

namespace hcs::replay {
namespace {

constexpr const char* kIncidentFiles[] = {
    "micro4-crash-seed42.hcsr",
    "micro4-drop-seed7.hcsr",
    "micro4-step-seed13.hcsr",
    "micro4-churn-seed42.hcsr",
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::uint64_t read_le(const std::string& bytes, std::size_t pos, int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes[pos + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  return v;
}

void write_le(std::string& bytes, std::size_t pos, int width, std::uint64_t v) {
  for (int i = 0; i < width; ++i) {
    bytes[pos + static_cast<std::size_t>(i)] = static_cast<char>((v >> (8 * i)) & 0xffU);
  }
}

struct CountField {
  std::size_t pos;
  int width;  // 4 or 8 bytes
};

// The count fields of a well-formed recording, found by walking its layout
// (docs/record-replay.md): the world count, each world's rank count and
// string lengths, every rank's event count, the value counts of each rank's
// first events, and the world's event-count trailer.
std::vector<CountField> count_fields(const std::string& bytes) {
  constexpr std::size_t kEventFixed = 1 + 1 + 4 + 6 * 8;  // kind .. digest
  constexpr std::uint64_t kValueCountsPerRank = 4;
  std::vector<CountField> out;
  std::size_t pos = 8;  // magic, version
  const std::uint64_t nworlds = read_le(bytes, pos, 4);
  out.push_back({pos, 4});
  pos += 4;
  for (std::uint64_t w = 0; w < nworlds; ++w) {
    pos += 8;  // seed
    const std::uint64_t nranks = read_le(bytes, pos, 4);
    out.push_back({pos, 4});
    pos += 4 + 8;  // rank count, fault seed
    for (int s = 0; s < 3; ++s) {
      out.push_back({pos, 4});
      pos += 4 + read_le(bytes, pos, 4);
    }
    for (std::uint64_t r = 0; r < nranks; ++r) {
      const std::uint64_t nevents = read_le(bytes, pos, 8);
      out.push_back({pos, 8});
      pos += 8;
      for (std::uint64_t e = 0; e < nevents; ++e) {
        pos += kEventFixed;
        if (e < kValueCountsPerRank) out.push_back({pos, 4});
        pos += 4 + 8 * read_le(bytes, pos, 4);
      }
    }
    out.push_back({pos, 8});
    pos += 8;
  }
  EXPECT_EQ(pos, bytes.size()) << "layout walk out of step with the format";
  return out;
}

// The fixed mutant set of one recording, each with a description.
std::vector<std::pair<std::string, std::string>> mutants(const std::string& bytes,
                                                         std::uint64_t seed) {
  std::vector<std::pair<std::string, std::string>> out;
  std::uint64_t state = seed;
  for (int i = 0; i < 64; ++i) {
    const std::size_t pos = sim::splitmix64(state) % bytes.size();
    const auto mask = static_cast<char>(1 + sim::splitmix64(state) % 255);
    std::string m = bytes;
    m[pos] = static_cast<char>(m[pos] ^ mask);
    out.emplace_back("byte flip at " + std::to_string(pos), std::move(m));
  }
  std::vector<std::size_t> cuts = {0, 1, 4, 8, 11, 12, 13, bytes.size() - 8, bytes.size() - 1};
  for (int i = 0; i < 8; ++i) cuts.push_back(sim::splitmix64(state) % bytes.size());
  for (const std::size_t cut : cuts) {
    out.emplace_back("truncated to " + std::to_string(cut) + " bytes", bytes.substr(0, cut));
  }
  constexpr std::uint64_t kU32Values[] = {0, 1u << 24, 0x7FFFFFFFu, 0xFFFFFFFFu};
  constexpr std::uint64_t kU64Values[] = {0, 0xFFFFFFFFu, std::uint64_t{1} << 40,
                                          ~std::uint64_t{0}};
  for (const CountField& f : count_fields(bytes)) {
    for (const std::uint64_t v : f.width == 4 ? kU32Values : kU64Values) {
      std::string m = bytes;
      write_le(m, f.pos, f.width, v);
      out.emplace_back("count at byte " + std::to_string(f.pos) + " set to " + std::to_string(v),
                       std::move(m));
    }
  }
  return out;
}

TEST(ParseMutants, EveryMutantParsesOrRaisesATypedError) {
  std::uint64_t seed = 0x5eed;
  std::size_t total = 0;
  for (const char* file : kIncidentFiles) {
    const std::string bytes = read_file(std::string(HCS_REPLAY_INCIDENT_DIR) + "/" + file);
    ASSERT_GT(bytes.size(), 16u) << file;
    ASSERT_NO_THROW((void)parse(bytes)) << file;
    for (const auto& [what, mutant] : mutants(bytes, seed++)) {
      ++total;
      try {
        (void)parse(mutant);
      } catch (const std::runtime_error&) {
        // The typed rejection every malformed recording must get.
      } catch (const std::exception& e) {
        ADD_FAILURE() << file << ", " << what << ": " << e.what();
      }
    }
  }
  EXPECT_GT(total, 400u);
}

}  // namespace
}  // namespace hcs::replay
