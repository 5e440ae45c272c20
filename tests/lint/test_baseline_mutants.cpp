// Seeded mutation test of the lint baseline reader, in the scheme of the
// .hcsr and --fault spec mutation tests.  Every mutant of a serialized
// baseline and of an overflowing pair of entries — byte flips, flips to the
// format's own characters (tab, '#', digits) and every truncation — must
// either parse or make Baseline::parse return false with a non-empty error:
// never an exception, never undefined behaviour (the sanitizer jobs run this
// binary).  The mutant set is a pure function of the inputs and a fixed seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "lint/baseline.hpp"

namespace hcs::lint {
namespace {

// splitmix64, as the other mutation tests derive their streams (the lint
// library stands alone, so it does not link the simulator's RNG).
std::uint64_t next(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Characters the format gives meaning to: the field separator, the comment
// marker, the count's digits, and a few that a count must not contain.
constexpr char kFormatChars[] = "\t#0123456789\n +-x";

// Two entries for one key whose counts sum to INT_MAX + 1.
constexpr const char* kOverflowPair =
    "2147483647\traw-random\tsrc/a.cpp\tint x = rand();\n"
    "1\traw-random\tsrc/a.cpp\tint x = rand();\n";

std::string serialized_baseline() {
  const std::map<std::string, std::vector<std::string>> lines = {
      {"src/a.cpp", {"int x = rand();", "f(rand(), rand());"}},
      {"src/my dir/b.cpp", {"auto t = std::chrono::steady_clock::now();"}},
  };
  const std::vector<Finding> findings = {
      {"raw-random", Severity::kError, "src/a.cpp", 1, 1, "msg"},
      {"raw-random", Severity::kError, "src/a.cpp", 2, 1, "msg"},
      {"raw-random", Severity::kError, "src/a.cpp", 2, 1, "msg"},
      {"wall-clock", Severity::kError, "src/my dir/b.cpp", 1, 1, "msg"},
  };
  return Baseline::serialize(findings, lines);
}

std::vector<std::pair<std::string, std::string>> mutants(const std::string& text,
                                                         std::uint64_t seed) {
  std::vector<std::pair<std::string, std::string>> out;
  std::uint64_t state = seed;
  for (int i = 0; i < 64; ++i) {
    const std::size_t pos = next(state) % text.size();
    const auto mask = static_cast<char>(1 + next(state) % 255);
    std::string m = text;
    m[pos] = static_cast<char>(m[pos] ^ mask);
    out.emplace_back("byte flip at " + std::to_string(pos), std::move(m));
  }
  for (int i = 0; i < 64; ++i) {
    const std::size_t pos = next(state) % text.size();
    std::string m = text;
    m[pos] = kFormatChars[next(state) % (sizeof(kFormatChars) - 1)];
    out.emplace_back("char " + std::to_string(static_cast<int>(m[pos])) + " at " +
                         std::to_string(pos),
                     std::move(m));
  }
  for (std::size_t cut = 0; cut < text.size(); ++cut) {
    out.emplace_back("truncated to " + std::to_string(cut) + " bytes", text.substr(0, cut));
  }
  return out;
}

TEST(BaselineMutants, EveryMutantParsesOrFailsWithAnError) {
  const std::string serialized = serialized_baseline();
  {
    Baseline b;
    std::string err;
    ASSERT_TRUE(b.parse(serialized, &err)) << err;
  }
  {
    Baseline b;
    std::string err;
    ASSERT_FALSE(b.parse(kOverflowPair, &err));
    EXPECT_NE(err.find("INT_MAX"), std::string::npos) << err;
  }
  std::uint64_t seed = 0xba5e;
  std::size_t total = 0;
  std::size_t parsed = 0;
  for (const std::string& text : {serialized, std::string(kOverflowPair)}) {
    for (const auto& [what, mutant] : mutants(text, seed++)) {
      ++total;
      Baseline b;
      std::string err;
      try {
        if (b.parse(mutant, &err)) {
          ++parsed;
        } else {
          EXPECT_FALSE(err.empty()) << what;
        }
      } catch (const std::exception& e) {
        ADD_FAILURE() << what << ": " << e.what();
      }
    }
  }
  EXPECT_GT(total, 500u);
  // Some mutants stay valid and some do not: the set reaches both outcomes.
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, total);
}

}  // namespace
}  // namespace hcs::lint
