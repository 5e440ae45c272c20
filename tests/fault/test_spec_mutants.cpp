// Seeded mutation test of the --fault spec parser.  Every mutant of the
// specs FaultPlanGrammar accepts — byte flips, flips to the grammar's own
// characters, and truncations — must either parse or be rejected through
// bad_spec: a std::invalid_argument naming the spec, never a std::stoi or
// std::stod exception escaping, never undefined behaviour (the sanitizer
// jobs run this binary).  The mutant set is a pure function of the specs and
// a fixed seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_plan.hpp"
#include "sim/rng.hpp"

namespace hcs::fault {
namespace {

// The accepted specs of tests/fault/test_fault_plan.cpp's FaultPlanGrammar
// suite, one per form it pins.
constexpr const char* kAcceptedSpecs[] = {
    "drop:p=0.01,level=inter_node",
    "drop:p=0.5",
    "drop:p=1",
    "duplicate:p=0.1,level=intra_socket",
    "reorder:p=0.1,delay=2ms",
    "reorder:p=0.1,delay=0.5",
    "burst:period=1s,duration=100ms,delay=50us,phase=10ms,level=intra_node",
    "straggler:rank=3,factor=2.5",
    "clockstep:rank=3,at=2ms,step=-5e-05s",
    "freqjump:rank=0,at=1e1s,ppm=-3",
    "pause:rank=1,at=1,duration=20ms",
    "crash:rank=5,at=0.001s",
    "leave:rank=5,at=271.300000s",
    "rejoin:rank=2,at=300ms",
};

// Characters the grammar gives meaning to: flipping a byte into one of them
// reaches the parser's branches far more often than a random byte does.
constexpr char kGrammarChars[] = ":,=.-+e0123456789smun \tx";

std::vector<std::pair<std::string, std::string>> mutants(const std::string& spec,
                                                         std::uint64_t seed) {
  std::vector<std::pair<std::string, std::string>> out;
  std::uint64_t state = seed;
  for (int i = 0; i < 48; ++i) {
    const std::size_t pos = sim::splitmix64(state) % spec.size();
    const auto mask = static_cast<char>(1 + sim::splitmix64(state) % 255);
    std::string m = spec;
    m[pos] = static_cast<char>(m[pos] ^ mask);
    out.emplace_back("byte flip at " + std::to_string(pos), std::move(m));
  }
  for (int i = 0; i < 48; ++i) {
    const std::size_t pos = sim::splitmix64(state) % spec.size();
    std::string m = spec;
    m[pos] = kGrammarChars[sim::splitmix64(state) % (sizeof(kGrammarChars) - 1)];
    out.emplace_back("'" + std::string(1, m[pos]) + "' at " + std::to_string(pos), std::move(m));
  }
  for (std::size_t cut = 0; cut < spec.size(); ++cut) {
    out.emplace_back("truncated to " + std::to_string(cut) + " bytes", spec.substr(0, cut));
  }
  return out;
}

TEST(SpecMutants, EveryMutantParsesOrRaisesBadSpec) {
  std::uint64_t seed = 0xfa17;
  std::size_t total = 0;
  std::size_t parsed = 0;
  for (const char* spec : kAcceptedSpecs) {
    ASSERT_NO_THROW((void)FaultPlan::parse_spec(spec)) << spec;
    for (const auto& [what, mutant] : mutants(spec, seed++)) {
      ++total;
      try {
        (void)FaultPlan::parse_spec(mutant);
        ++parsed;
      } catch (const std::invalid_argument& e) {
        // bad_spec's rejection names the spec it rejects (what() ends at a
        // flipped-in NUL byte).
        const std::string named = "bad fault spec '" + mutant.substr(0, mutant.find('\0'));
        EXPECT_EQ(std::string(e.what()).rfind(named, 0), 0u)
            << spec << ", " << what << ": " << e.what();
      } catch (const std::exception& e) {
        ADD_FAILURE() << spec << ", " << what << ": " << e.what();
      }
    }
  }
  EXPECT_GT(total, 1500u);
  // Some mutants stay valid (a digit for a digit): the set reaches past the
  // first rejection.
  EXPECT_GT(parsed, 0u);
}

}  // namespace
}  // namespace hcs::fault
