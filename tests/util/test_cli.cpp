#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>

namespace hcs::util {
namespace {

Cli make(std::initializer_list<const char*> args, std::vector<std::string> flags = {}) {
  std::vector<const char*> argv(args);
  return Cli(static_cast<int>(argv.size()), argv.data(), std::move(flags));
}

TEST(Cli, ParsesKeyValuePairs) {
  const Cli cli = make({"prog", "--seed", "7", "--name", "jupiter"});
  EXPECT_EQ(cli.get_int("seed", 0), 7);
  EXPECT_EQ(cli.get("name", ""), "jupiter");
  EXPECT_EQ(cli.program(), "prog");
}

TEST(Cli, ParsesEqualsForm) {
  const Cli cli = make({"prog", "--scale=0.5", "--out=x.csv"});
  EXPECT_DOUBLE_EQ(cli.get_double("scale", 1.0), 0.5);
  EXPECT_EQ(cli.get("out", ""), "x.csv");
}

TEST(Cli, BooleanFlags) {
  const Cli cli = make({"prog", "--csv", "--seed", "3"}, {"csv"});
  EXPECT_TRUE(cli.has("csv"));
  EXPECT_EQ(cli.get_int("seed", 0), 3);
}

TEST(Cli, TrailingFlagWithoutValue) {
  const Cli cli = make({"prog", "--verbose"});
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_EQ(cli.get("verbose", ""), "1");
}

TEST(Cli, PositionalArguments) {
  const Cli cli = make({"prog", "alpha", "--k", "v", "beta"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "alpha");
  EXPECT_EQ(cli.positional()[1], "beta");
}

TEST(Cli, FallbacksWhenMissing) {
  const Cli cli = make({"prog"});
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(cli.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(cli.get_int("missing", -4), -4);
  EXPECT_EQ(cli.seed(123), 123u);
}

TEST(Cli, ScaleFromCommandLine) {
  const Cli cli = make({"prog", "--scale", "0.5"});
  EXPECT_DOUBLE_EQ(cli.scale(), 0.5);
}

TEST(Cli, ScaleOutOfRangeThrows) {
  const Cli cli = make({"prog", "--scale", "0"});
  EXPECT_THROW(cli.scale(), std::invalid_argument);
  const Cli cli2 = make({"prog", "--scale", "9"});
  EXPECT_THROW(cli2.scale(), std::invalid_argument);
}

TEST(Cli, RejectUnknownAcceptsKnownSet) {
  const Cli cli = make({"prog", "--seed", "3", "--csv"}, {"csv"});
  EXPECT_NO_THROW(cli.reject_unknown({"seed", "csv"}));
}

TEST(Cli, RejectUnknownThrowsOnTypo) {
  // "--job 4" (missing the s) must be an error, not a silently ignored
  // option running the default configuration.
  const Cli cli = make({"prog", "--job", "4"});
  try {
    cli.reject_unknown({"jobs", "seed"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--job"), std::string::npos) << what;
    EXPECT_NE(what.find("--jobs"), std::string::npos) << what;  // known set listed
  }
}

TEST(Cli, RejectUnknownSeesEqualsForm) {
  const Cli cli = make({"prog", "--traceout=x.json"});
  EXPECT_THROW(cli.reject_unknown({"trace-out"}), std::invalid_argument);
}

TEST(Cli, JobsDefaultsAndZeroMeansAuto) {
  const Cli cli = make({"prog"});
  EXPECT_EQ(cli.jobs(), 1);
  EXPECT_EQ(cli.jobs(4), 4);
  const Cli cli0 = make({"prog", "--jobs", "0"});
  EXPECT_EQ(cli0.jobs(), 0);  // 0 = auto, resolved by runner::resolve_jobs
}

TEST(Cli, JobsFromCommandLine) {
  const Cli cli = make({"prog", "--jobs", "2"});
  EXPECT_EQ(cli.jobs(), 2);
}

TEST(Cli, ShardsFromCommandLineAndDefault) {
  EXPECT_EQ(make({"prog"}).shards(), 1);
  EXPECT_EQ(make({"prog"}).shards(3), 3);
  EXPECT_EQ(make({"prog", "--shards", "4"}).shards(), 4);
  EXPECT_EQ(make({"prog", "--shards=2"}).shards(7), 2);
}

TEST(Cli, NegativeJobsThrows) {
  const Cli cli = make({"prog", "--jobs", "-2"});
  EXPECT_THROW(cli.jobs(), std::invalid_argument);
}

// Expects `call` to throw std::invalid_argument whose message names both
// the option and the offending value.
template <typename F>
void expect_rejected(F call, const std::string& name, const std::string& value) {
  try {
    call();
    FAIL() << "expected std::invalid_argument for " << name << " '" << value << "'";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(name), std::string::npos) << what;
    EXPECT_NE(what.find("'" + value + "'"), std::string::npos) << what;
  }
}

// Reads one numeric setting through the accessor a binary would use.
enum class Reader { kSeed, kJobs, kScale, kShards, kGetInt, kGetDouble };

void read(const Cli& cli, Reader reader, const std::string& option) {
  switch (reader) {
    case Reader::kSeed: (void)cli.seed(1); break;
    case Reader::kJobs: (void)cli.jobs(); break;
    case Reader::kScale: (void)cli.scale(); break;
    case Reader::kShards: (void)cli.shards(); break;
    case Reader::kGetInt: (void)cli.get_int(option, 0); break;
    case Reader::kGetDouble: (void)cli.get_double(option, 0.0); break;
  }
}

struct MalformedCase {
  const char* label;   // test-name suffix
  const char* name;    // option (without "--")
  const char* value;
  Reader reader;
};

// A malformed --option value must throw, naming the option and the value,
// instead of a bare stoll message or a silently truncated number.
class CliMalformedOption : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(CliMalformedOption, NamesOptionAndValue) {
  const MalformedCase& c = GetParam();
  const std::string arg = std::string("--") + c.name + "=" + c.value;
  const Cli cli = make({"prog", arg.c_str()});
  expect_rejected([&] { read(cli, c.reader, c.name); }, std::string("--") + c.name, c.value);
}

INSTANTIATE_TEST_SUITE_P(
    Values, CliMalformedOption,
    ::testing::Values(
        MalformedCase{"SeedLetters", "seed", "abc", Reader::kSeed},
        MalformedCase{"SeedFraction", "seed", "1.5", Reader::kSeed},
        MalformedCase{"SeedHexPrefix", "seed", "0x10", Reader::kSeed},
        MalformedCase{"JobsLetters", "jobs", "abc", Reader::kJobs},
        MalformedCase{"JobsTrailingGarbage", "jobs", "2x", Reader::kJobs},
        MalformedCase{"JobsAboveIntMax", "jobs", "4294967297", Reader::kJobs},
        MalformedCase{"ShardsEmpty", "shards", "", Reader::kShards},
        MalformedCase{"ShardsAboveIntMax", "shards", "4294967297", Reader::kShards},
        MalformedCase{"ShardsTwentyDigits", "shards", "12345678901234567890", Reader::kShards},
        MalformedCase{"ScaleTrailingGarbage", "scale", "0.5abc", Reader::kScale},
        MalformedCase{"ScaleEmpty", "scale", "", Reader::kScale},
        MalformedCase{"ScaleOverflow", "scale", "1e999", Reader::kScale},
        MalformedCase{"IntTwentyDigits", "fault-seed", "12345678901234567890",
                      Reader::kGetInt},
        MalformedCase{"DoubleTrailingGarbage", "jobs", "2x", Reader::kGetDouble}),
    [](const ::testing::TestParamInfo<MalformedCase>& info) { return info.param.label; });

// The command line is the only source of --scale/--jobs/--shards: a
// variable named after the option (HCLOCKSYNC_ plus the option in upper
// case) left in the environment, well-formed or not, neither sets a value
// nor makes a read throw.
class CliIgnoresEnvironment : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(CliIgnoresEnvironment, ReadsOnlyTheCommandLine) {
  const MalformedCase& c = GetParam();
  std::string variable = "HCLOCKSYNC_";
  for (const char* p = c.name; *p != '\0'; ++p) {
    variable += static_cast<char>(std::toupper(static_cast<unsigned char>(*p)));
  }
  const Cli bare = make({"prog"});
  const std::string arg = std::string("--") + c.name + "=" + c.value;
  const Cli flagged = make({"prog", arg.c_str()});
  for (const char* env_value : {"3", "2x", ""}) {
    ::setenv(variable.c_str(), env_value, 1);
    EXPECT_NO_THROW(read(bare, c.reader, "")) << variable << "=" << env_value;
    switch (c.reader) {
      case Reader::kScale:
        EXPECT_DOUBLE_EQ(bare.scale(), 1.0);
        EXPECT_DOUBLE_EQ(flagged.scale(), 0.5);
        break;
      case Reader::kJobs:
        EXPECT_EQ(bare.jobs(), 1);
        EXPECT_EQ(flagged.jobs(), 2);
        break;
      case Reader::kShards:
        EXPECT_EQ(bare.shards(), 1);
        EXPECT_EQ(flagged.shards(), 2);
        break;
      default: FAIL() << "no environment case for this reader";
    }
    ::unsetenv(variable.c_str());
  }
}

// `value` is the command-line value each case expects to read back.
INSTANTIATE_TEST_SUITE_P(
    Values, CliIgnoresEnvironment,
    ::testing::Values(MalformedCase{"Scale", "scale", "0.5", Reader::kScale},
                      MalformedCase{"Jobs", "jobs", "2", Reader::kJobs},
                      MalformedCase{"Shards", "shards", "2", Reader::kShards}),
    [](const ::testing::TestParamInfo<MalformedCase>& info) { return info.param.label; });

// The free parser behind list-valued flags (bench_scale --ranks) keeps the
// accessors' contract.
TEST(Cli, ParseIntIsWholeStringAndIntRanged) {
  EXPECT_EQ(parse_int("2048", "--ranks"), 2048);
  expect_rejected([] { (void)parse_int("2048x", "--ranks"); }, "--ranks", "2048x");
  expect_rejected([] { (void)parse_int("4294967297", "--ranks"); }, "--ranks", "4294967297");
}

TEST(Cli, GetAllReturnsEveryOccurrenceInOrder) {
  // Repeatable flags (--fault) need all values; get() keeps only the last.
  const Cli cli = make({"prog", "--fault", "drop:p=0.01", "--seed", "2",
                        "--fault=clockstep:rank=3,at=200s,step=50us"});
  const std::vector<std::string> faults = cli.get_all("fault");
  ASSERT_EQ(faults.size(), 2u);
  EXPECT_EQ(faults[0], "drop:p=0.01");
  EXPECT_EQ(faults[1], "clockstep:rank=3,at=200s,step=50us");
  EXPECT_EQ(cli.get("fault", ""), "clockstep:rank=3,at=200s,step=50us");  // last wins
}

TEST(Cli, GetAllOfAbsentKeyIsEmpty) {
  const Cli cli = make({"prog", "--seed", "2"});
  EXPECT_TRUE(cli.get_all("fault").empty());
  EXPECT_EQ(cli.get_all("seed"), std::vector<std::string>{"2"});
}

}  // namespace
}  // namespace hcs::util
