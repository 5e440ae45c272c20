#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "clocksync/meanrtt_offset.hpp"
#include "clocksync/skampi_offset.hpp"
#include "topology/presets.hpp"
#include "util/stats.hpp"
#include "vclock/hardware_clock.hpp"

namespace hcs::clocksync {
namespace {

// Two single-core nodes whose clocks differ by a large static offset.
topology::MachineConfig offset_machine(double offset_abs) {
  auto m = topology::testbox(2, 1);
  m.clocks.initial_offset_abs = offset_abs;
  m.clocks.base_skew_abs = 0.0;
  m.clocks.skew_walk_sd = 0.0;
  return m;
}

double true_offset(simmpi::World& w) {
  // ref clock (rank 0) minus client clock (rank 1) at t = 0.
  return w.base_clock(0)->at_exact(0.0) - w.base_clock(1)->at_exact(0.0);
}

template <typename Alg>
ClockOffset run_measure(simmpi::World& w, Alg& alg_ref, Alg& alg_client) {
  ClockOffset measured;
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    Alg& mine = ctx.rank() == 0 ? alg_ref : alg_client;
    const ClockOffset o = co_await mine.measure_offset(ctx.comm_world(), *clk, 0, 1);
    if (ctx.rank() == 1) measured = o;
  });
  return measured;
}

class OffsetParamTest : public ::testing::TestWithParam<int> {};  // nexchanges

TEST_P(OffsetParamTest, SKaMPIRecoversStaticOffset) {
  simmpi::World w(offset_machine(20e-3), 3);
  const double truth = true_offset(w);
  SKaMPIOffset a(GetParam()), b(GetParam());
  const ClockOffset o = run_measure(w, a, b);
  EXPECT_NEAR(o.offset, truth, 2e-6) << "nexchanges=" << GetParam();
  // The timestamp is a *clock value* (may be negative: initial offset), but
  // must be near the client clock's reading at the measurement instant.
  EXPECT_LT(std::abs(o.timestamp), 25e-3);
}

TEST_P(OffsetParamTest, MeanRttRecoversStaticOffset) {
  simmpi::World w(offset_machine(20e-3), 5);
  const double truth = true_offset(w);
  MeanRttOffset a(GetParam()), b(GetParam());
  const ClockOffset o = run_measure(w, a, b);
  EXPECT_NEAR(o.offset, truth, 3e-6) << "nexchanges=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Exchanges, OffsetParamTest, ::testing::Values(5, 20, 100));

TEST(OffsetAlgorithms, SKaMPIMoreRobustToJitterThanMeanRtt) {
  // With heavy asymmetric jitter, min-filtering (SKaMPI) should beat the
  // mean/median-based Mean-RTT estimator — the basis of the paper's
  // "SKaMPI-Offset inside JK" improvement (§III-C3).
  auto machine = offset_machine(10e-3);
  machine.net.inter_node.jitter_mean = 2e-6;  // strong jitter
  machine.net.inter_node.spike_prob = 0.02;
  machine.net.inter_node.spike_mean = 50e-6;

  double skampi_err_acc = 0.0, meanrtt_err_acc = 0.0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    {
      simmpi::World w(machine, 100 + t);
      const double truth = true_offset(w);
      SKaMPIOffset a(50), b(50);
      skampi_err_acc += std::abs(run_measure(w, a, b).offset - truth);
    }
    {
      simmpi::World w(machine, 100 + t);
      const double truth = true_offset(w);
      MeanRttOffset a(50), b(50);
      meanrtt_err_acc += std::abs(run_measure(w, a, b).offset - truth);
    }
  }
  EXPECT_LT(skampi_err_acc, meanrtt_err_acc);
}

TEST(OffsetAlgorithms, RepeatedMeasurementsTrackDrift) {
  // With a pure skew difference, successive offsets should grow linearly.
  auto machine = topology::testbox(2, 1);
  machine.clocks.initial_offset_abs = 0.0;
  machine.clocks.base_skew_abs = 100e-6;  // exaggerated skew: 100 ppm
  machine.clocks.skew_walk_sd = 0.0;
  simmpi::World w(machine, 17);
  const auto hw0 = std::dynamic_pointer_cast<vclock::HardwareClock>(w.base_clock(0));
  const auto hw1 = std::dynamic_pointer_cast<vclock::HardwareClock>(w.base_clock(1));
  const double skew_diff = hw0->base_skew() - hw1->base_skew();

  std::vector<double> timestamps, offsets;
  w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    SKaMPIOffset alg(20);
    for (int i = 0; i < 10; ++i) {
      const ClockOffset o = co_await alg.measure_offset(ctx.comm_world(), *clk, 0, 1);
      if (ctx.rank() == 1) {
        timestamps.push_back(o.timestamp);
        offsets.push_back(o.offset);
      }
      co_await ctx.sim().delay(0.1);
    }
  });
  ASSERT_EQ(offsets.size(), 10u);
  const double observed_slope =
      (offsets.back() - offsets.front()) / (timestamps.back() - timestamps.front());
  EXPECT_NEAR(observed_slope, skew_diff, 10e-6);
}

// Pins Mean-RTT-Offset's median selection bit for bit: the (timestamp,
// offset) it reports is one exchange of the burst, picked by nth_element over
// the per-exchange clock differences.  An odd and an even burst length cover
// both median positions.
TEST(OffsetAlgorithms, MeanRttMedianIsPinned) {
  auto machine = offset_machine(10e-3);
  machine.net.inter_node.jitter_mean = 2e-6;
  struct Pin {
    int nexchanges;
    double timestamp;
    double offset;
  };
  for (const Pin& pin : {Pin{7, 0x1.546b08aef293bp-13, 0x1.91aacc0e783cap-8},
                         Pin{8, 0x1.9d1150e8d9508p-13, 0x1.91a3b9136dac4p-8}}) {
    simmpi::World w(machine, 21);
    MeanRttOffset a(pin.nexchanges), b(pin.nexchanges);
    const ClockOffset o = run_measure(w, a, b);
    EXPECT_EQ(o.timestamp, pin.timestamp) << "nexchanges " << pin.nexchanges;
    EXPECT_EQ(o.offset, pin.offset) << "nexchanges " << pin.nexchanges;
  }
}

TEST(OffsetAlgorithms, NonParticipantRejected) {
  simmpi::World w(topology::testbox(3, 1), 3);
  w.launch([](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    SKaMPIOffset alg(5);
    // Rank 2 is neither ref nor client.
    if (ctx.rank() == 2) {
      (void)co_await alg.measure_offset(ctx.comm_world(), *clk, 0, 1);
    }
  });
  EXPECT_THROW(w.run(), std::logic_error);
}

TEST(OffsetAlgorithms, InvalidNexchangesRejected) {
  EXPECT_THROW(SKaMPIOffset(0), std::invalid_argument);
  EXPECT_THROW(MeanRttOffset(-3), std::invalid_argument);
}

TEST(OffsetAlgorithms, CloneIsIndependentAndEquallyConfigured) {
  SKaMPIOffset orig(42);
  auto copy = orig.clone();
  EXPECT_EQ(copy->nexchanges(), 42);
  EXPECT_EQ(copy->name(), "skampi_offset");
  MeanRttOffset m(7);
  EXPECT_EQ(m.clone()->name(), "mean_rtt_offset");
}

}  // namespace
}  // namespace hcs::clocksync
