// FaultPlan spec-string grammar: every kind parses into the documented
// fields, describe() is a lossless round-trip, units work, and malformed
// specs fail eagerly with a message naming the offending spec.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "fault/fault_plan.hpp"

namespace hcs::fault {
namespace {

TEST(FaultPlanGrammar, DropParsesProbabilityAndLevel) {
  const FaultSpec s = FaultPlan::parse_spec("drop:p=0.01,level=inter_node");
  EXPECT_EQ(s.kind, FaultKind::kDrop);
  EXPECT_DOUBLE_EQ(s.p, 0.01);
  EXPECT_EQ(s.level, NetLevel::kInterNode);
}

TEST(FaultPlanGrammar, DropDefaultsToAllLevels) {
  const FaultSpec s = FaultPlan::parse_spec("drop:p=0.5");
  EXPECT_EQ(s.level, NetLevel::kAll);
  EXPECT_EQ(std::string("network"), to_string(s.level));
}

TEST(FaultPlanGrammar, DurationUnitsConvertToSeconds) {
  EXPECT_DOUBLE_EQ(FaultPlan::parse_spec("reorder:p=0.1,delay=2s").delay, 2.0);
  EXPECT_DOUBLE_EQ(FaultPlan::parse_spec("reorder:p=0.1,delay=2ms").delay, 2e-3);
  EXPECT_DOUBLE_EQ(FaultPlan::parse_spec("reorder:p=0.1,delay=2us").delay, 2e-6);
  EXPECT_DOUBLE_EQ(FaultPlan::parse_spec("reorder:p=0.1,delay=2ns").delay, 2e-9);
  EXPECT_DOUBLE_EQ(FaultPlan::parse_spec("reorder:p=0.1,delay=0.5").delay, 0.5);  // bare = s
}

TEST(FaultPlanGrammar, BurstParsesAllKeys) {
  const FaultSpec s =
      FaultPlan::parse_spec("burst:period=1s,duration=100ms,delay=50us,phase=10ms,level=intra_node");
  EXPECT_EQ(s.kind, FaultKind::kBurst);
  EXPECT_DOUBLE_EQ(s.period, 1.0);
  EXPECT_DOUBLE_EQ(s.duration, 0.1);
  EXPECT_DOUBLE_EQ(s.delay, 50e-6);
  EXPECT_DOUBLE_EQ(s.phase, 0.01);
  EXPECT_EQ(s.level, NetLevel::kIntraNode);
}

TEST(FaultPlanGrammar, RankTargetedKindsParse) {
  const FaultSpec straggler = FaultPlan::parse_spec("straggler:rank=3,factor=2.5");
  EXPECT_EQ(straggler.rank, 3);
  EXPECT_DOUBLE_EQ(straggler.factor, 2.5);

  const FaultSpec step = FaultPlan::parse_spec("clockstep:rank=1,at=200s,step=50us");
  EXPECT_EQ(step.rank, 1);
  EXPECT_DOUBLE_EQ(step.at, 200.0);
  EXPECT_DOUBLE_EQ(step.step, 50e-6);

  const FaultSpec jump = FaultPlan::parse_spec("freqjump:rank=0,at=10s,ppm=-3");
  EXPECT_DOUBLE_EQ(jump.ppm, -3.0);

  const FaultSpec pause = FaultPlan::parse_spec("pause:rank=2,at=1s,duration=20ms");
  EXPECT_EQ(pause.rank, 2);
  EXPECT_DOUBLE_EQ(pause.duration, 0.02);
}

TEST(FaultPlanGrammar, DescribeRoundTrips) {
  const char* specs[] = {
      "drop:p=0.01",
      "drop:p=0.25,level=inter_node",
      "duplicate:p=0.1,level=intra_socket",
      "reorder:p=0.2,delay=1ms",
      "burst:period=2s,duration=250ms,delay=100us,phase=50ms",
      "straggler:rank=5,factor=4",
      "clockstep:rank=3,at=200s,step=50us",
      "freqjump:rank=1,at=10s,ppm=2.5",
      "pause:rank=0,at=1s,duration=100ms",
  };
  for (const char* spec : specs) {
    const FaultSpec parsed = FaultPlan::parse_spec(spec);
    // describe() is canonical, so a second round must be a fixed point.
    const std::string canonical = parsed.describe();
    EXPECT_EQ(FaultPlan::parse_spec(canonical).describe(), canonical) << spec;
  }
}

TEST(FaultPlanGrammar, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",                                  // no kind
      "drop",                              // missing keys
      "warp:p=0.1",                        // unknown kind
      "drop:p",                            // not key=value
      "drop:p=",                           // empty value
      "drop:p=0.1,p=0.2",                  // duplicate key
      "drop:p=1.5",                        // out of range
      "drop:p=0.1,level=underwater",       // unknown level
      "drop:p=0.1,rank=3",                 // key not valid for kind
      "reorder:p=0.1",                     // missing required delay
      "reorder:p=0.1,delay=2fortnights",   // unknown unit
      "straggler:rank=-1,factor=2",        // negative rank
      "straggler:rank=0,factor=0.5",       // factor < 1
      "burst:period=1s,duration=2s,delay=1us",  // duration > period
      "clockstep:rank=0,at=1s,step=0",     // zero step
      "pause:rank=0,at=1s,duration=0",     // zero duration
  };
  for (const char* spec : bad) {
    EXPECT_THROW(FaultPlan::parse_spec(spec), std::invalid_argument) << "'" << spec << "'";
  }
}

// Values must be finite numbers written right after the '=': NaN passes
// every `<`/`>` range check, and std::stod would skip leading blanks.
TEST(FaultPlanGrammar, ValuesMustBeFiniteAndUnpadded) {
  const char* rejected[] = {
      "drop:p=nan",
      "drop:p=NaN",
      "duplicate:p=-nan",
      "reorder:p=0.1,delay=nan",
      "reorder:p=0.1,delay=infms",
      "crash:rank=1,at=nan",
      "crash:rank=1,at=inf",
      "straggler:rank=1,factor=nan",
      "straggler:rank=1,factor=infinity",
      "clockstep:rank=1,at=1s,step=-inf",
      "freqjump:rank=0,at=1s,ppm=nan",
      "pause:rank=1,at=1,duration=inf",
      "burst:period=inf,duration=1s,delay=1us",
      "leave:rank=2,at=nan",
      "drop:p= 0.5",
      "drop:p=\t0.5",
      "crash:rank=1,at= 2ms",
  };
  for (const char* spec : rejected) {
    EXPECT_THROW(FaultPlan::parse_spec(spec), std::invalid_argument) << "'" << spec << "'";
  }
  // The forms the tests, goldens, incidents and bench_service's default plan
  // use still parse to the same values.
  struct Accepted {
    const char* spec;
    double FaultSpec::*field;
    double value;
  };
  const Accepted accepted[] = {
      {"drop:p=0.02", &FaultSpec::p, 0.02},
      {"drop:p=0.05", &FaultSpec::p, 0.05},
      {"drop:p=1", &FaultSpec::p, 1.0},
      {"crash:rank=5,at=0.001s", &FaultSpec::at, 0.001},
      {"crash:rank=2,at=2ms", &FaultSpec::at, 2e-3},
      {"clockstep:rank=3,at=0.5s,step=50us", &FaultSpec::step, 50e-6},
      {"clockstep:rank=3,at=2ms,step=-5e-05s", &FaultSpec::step, -5e-05},
      {"straggler:rank=1,factor=1.05", &FaultSpec::factor, 1.05},
      {"leave:rank=5,at=271.300000s", &FaultSpec::at, 271.3},
      {"rejoin:rank=2,at=300ms", &FaultSpec::at, 0.3},
      {"pause:rank=1,at=1,duration=20ms", &FaultSpec::duration, 0.02},
      {"freqjump:rank=0,at=1e1s,ppm=-3", &FaultSpec::ppm, -3.0},
  };
  for (const Accepted& a : accepted) {
    EXPECT_DOUBLE_EQ(FaultPlan::parse_spec(a.spec).*a.field, a.value) << "'" << a.spec << "'";
  }
}

TEST(FaultPlanGrammar, ErrorMessageNamesTheSpec) {
  try {
    FaultPlan::parse_spec("drop:p=2");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("drop:p=2"), std::string::npos) << e.what();
  }
}

TEST(FaultPlanBuilding, AccumulatesSpecsAndSeed) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.describe(), "(none)");
  plan.add("drop:p=0.01");
  plan.add("clockstep:rank=3,at=200s,step=50us");
  plan.set_seed(7);
  EXPECT_FALSE(plan.empty());
  ASSERT_EQ(plan.specs().size(), 2u);
  EXPECT_EQ(plan.seed(), 7u);
  EXPECT_EQ(plan.describe(), "drop:p=0.01 clockstep:rank=3,at=200s,step=5e-05s");
}

}  // namespace
}  // namespace hcs::fault
