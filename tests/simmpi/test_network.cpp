#include "simmpi/network.hpp"

#include <gtest/gtest.h>

#include "topology/presets.hpp"

namespace hcs::simmpi {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  topology::MachineConfig machine_ = topology::testbox(2, 4);  // 2 nodes x 4 cores
  NetworkModel net_{machine_.topo, machine_.net, 7};
  sim::Rng rng_{7};
};

TEST_F(NetworkTest, ClassifiesLevels) {
  EXPECT_EQ(net_.classify(0, 1), LinkLevel::kIntraSocket);  // 1 socket/node
  EXPECT_EQ(net_.classify(0, 4), LinkLevel::kInterNode);
  const auto two_socket = topology::jupiter();
  NetworkModel net2(two_socket.topo, two_socket.net, 7);
  EXPECT_EQ(net2.classify(0, 7), LinkLevel::kIntraSocket);
  EXPECT_EQ(net2.classify(0, 8), LinkLevel::kIntraNode);   // other socket
  EXPECT_EQ(net2.classify(0, 16), LinkLevel::kInterNode);  // next node
}

TEST_F(NetworkTest, DelayAtLeastBasePlusSerialization) {
  for (int i = 0; i < 1000; ++i) {
    const double d = net_.sample_delay(LinkLevel::kInterNode, 1024, rng_);
    EXPECT_GE(d, machine_.net.inter_node.base_latency +
                     machine_.net.inter_node.per_byte * 1024);
  }
}

TEST_F(NetworkTest, LargerMessagesTakeLonger) {
  const double small = net_.expected_delay(LinkLevel::kInterNode, 8);
  const double large = net_.expected_delay(LinkLevel::kInterNode, 1 << 20);
  EXPECT_GT(large, small);
}

TEST_F(NetworkTest, LevelsOrderedByLatency) {
  EXPECT_LT(net_.expected_delay(LinkLevel::kIntraSocket, 8),
            net_.expected_delay(LinkLevel::kIntraNode, 8));
  EXPECT_LT(net_.expected_delay(LinkLevel::kIntraNode, 8),
            net_.expected_delay(LinkLevel::kInterNode, 8));
}

TEST_F(NetworkTest, JitterProducesVariance) {
  double first = net_.sample_delay(LinkLevel::kInterNode, 8, rng_);
  bool varied = false;
  for (int i = 0; i < 100; ++i) {
    if (net_.sample_delay(LinkLevel::kInterNode, 8, rng_) != first) varied = true;
  }
  EXPECT_TRUE(varied);
}

TEST_F(NetworkTest, NicGapSerializesBackToBackEgress) {
  // Two messages handed to the NIC at the same instant must depart at least
  // nic_gap apart, so the second one arrives later on average.
  const double t1 = net_.deliver_time(0, 4, 8, 1.0);
  const double t2 = net_.deliver_time(0, 5, 8, 1.0);
  EXPECT_GE(t2, 1.0 + machine_.net.nic_gap);
  (void)t1;
}

TEST_F(NetworkTest, IntraNodeBypassesNic) {
  // Saturate node 0's egress...
  for (int i = 0; i < 50; ++i) net_.deliver_time(0, 4, 8, 2.0);
  // ...then an intra-node message at the same instant is unaffected.
  const double t = net_.deliver_time(0, 1, 8, 2.0);
  EXPECT_LT(t, 2.0 + 10 * machine_.net.intra_socket.base_latency);
}

TEST_F(NetworkTest, InterNodeDeliveryIsTransitThenIngress) {
  // One NIC model: deliver_time chains the sender half (transit_time) and
  // the receiver half (ingress_admit), draw for draw.
  NetworkModel halves(machine_.topo, machine_.net, 7);
  for (int i = 0; i < 20; ++i) {
    const int dst = 4 + i % 4;
    const double ready = 1.0 + 1e-7 * i;
    const double port = halves.transit_time(0, dst, 64, ready);
    EXPECT_EQ(net_.deliver_time(0, dst, 64, ready), halves.ingress_admit(dst, 64, port, ready));
  }
}

TEST_F(NetworkTest, UncontendedIgnoresNicState) {
  for (int i = 0; i < 50; ++i) net_.deliver_time(0, 4, 8, 3.0);
  const double t = net_.deliver_leg(net_.burst_leg(0, 4), 8, 3.0);
  // Bounded by base + serialization + a generous jitter allowance.
  EXPECT_LT(t, 3.0 + machine_.net.inter_node.base_latency + 1e-6);
}

// A burst leg resolves its channel stream once; the exchanges on it draw
// exactly the delays a fresh stream of the same channel gives sample_delay,
// in order.  Both models share the seed, so their channel streams match.
TEST_F(NetworkTest, LegDrawsTheChannelStreamInOrder) {
  auto cfg = machine_;
  cfg.net.inter_node.spike_prob = 0.3;  // both draw paths of sample_delay
  cfg.net.inter_node.spike_mean = 5e-6;
  NetworkModel legs(cfg.topo, cfg.net, 17);
  NetworkModel draws(cfg.topo, cfg.net, 17);
  for (const int dst : {1, 5}) {
    const BurstLeg leg = legs.burst_leg(0, dst);
    EXPECT_EQ(leg.level, legs.classify(0, dst));
    sim::Rng& rng = *draws.burst_leg(0, dst).rng;
    for (int i = 0; i < 200; ++i) {
      const double depart = 1.0 + 1e-3 * i;
      EXPECT_EQ(legs.deliver_leg(leg, 64, depart),
                depart + draws.sample_delay(leg.level, 64, rng))
          << "dst " << dst << " exchange " << i;
    }
  }
  // The leg draws from the same channel stream as the reliable path.
  NetworkModel reliable(cfg.topo, cfg.net, 17);
  const BurstLeg leg = draws.burst_leg(2, 3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(draws.deliver_leg(leg, 64, 2.0), reliable.deliver_time(2, 3, 64, 2.0));
  }
}

TEST_F(NetworkTest, SpikesOccurAtConfiguredRate) {
  auto cfg = machine_;
  cfg.net.inter_node.spike_prob = 0.5;
  cfg.net.inter_node.spike_mean = 100e-6;
  NetworkModel spiky(cfg.topo, cfg.net, 11);
  sim::Rng rng(11);
  int spikes = 0;
  const int n = 2000;
  // Base delay stays near 1 us; a spike adds Exp(100 us), so >3 us detects a
  // spike with probability ~0.97 and false-positives are negligible.
  for (int i = 0; i < n; ++i) {
    if (spiky.sample_delay(LinkLevel::kInterNode, 8, rng) > 3e-6) ++spikes;
  }
  EXPECT_NEAR(static_cast<double>(spikes) / n, 0.5 * 0.97, 0.05);
}

TEST_F(NetworkTest, ExpectedDelayIncludesSpikeContribution) {
  auto cfg = machine_;
  cfg.net.inter_node.spike_prob = 0.1;
  cfg.net.inter_node.spike_mean = 50e-6;
  NetworkModel spiky(cfg.topo, cfg.net, 13);
  EXPECT_NEAR(spiky.expected_delay(LinkLevel::kInterNode, 0) -
                  net_.expected_delay(LinkLevel::kInterNode, 0),
              0.1 * 50e-6, 1e-9);
}

}  // namespace
}  // namespace hcs::simmpi
