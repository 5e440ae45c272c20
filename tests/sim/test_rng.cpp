#include "sim/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace hcs::sim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, UniformMeanApproximatesHalf) {
  Rng rng(11);
  double acc = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaleAndShift) {
  Rng rng(17);
  const int n = 100000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(19);
  const int n = 200000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Rng, ExponentialNonNegative) {
  Rng rng(23);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.exponential(1.0), 0.0);
}

TEST(Rng, ExponentialZeroMeanReturnsZero) {
  Rng rng(29);
  EXPECT_EQ(rng.exponential(0.0), 0.0);
  EXPECT_EQ(rng.exponential(-1.0), 0.0);
}

TEST(Rng, BernoulliProbabilityRespected) {
  Rng rng(31);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Rng, UniformIndexBounds) {
  Rng rng(37);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.uniform_index(5)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(41);
  Rng child = a.split();
  // Child differs from the parent's continued stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == child.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Splitmix, KnownFirstValueStable) {
  std::uint64_t s1 = 0, s2 = 0;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
}

// A channel's stream depends only on the seed and the channel, not on which
// channels were used first: that is what keeps draws independent of how
// events interleave across channels and shards.
TEST(ChannelStreams, StreamDependsOnlyOnSeedAndChannel) {
  ChannelStreams forward(43, 4);
  ChannelStreams backward(43, 4);
  std::vector<std::uint64_t> a, b;
  for (int src = 0; src < 4; ++src) {
    for (int dst = 0; dst < 4; ++dst) a.push_back(forward.at(src, dst).next_u64());
  }
  for (int src = 3; src >= 0; --src) {
    for (int dst = 3; dst >= 0; --dst) b.push_back(backward.at(src, dst).next_u64());
  }
  std::reverse(b.begin(), b.end());
  EXPECT_EQ(a, b);
  // Each channel keeps its own position, and the two directions differ.
  EXPECT_EQ(forward.at(1, 2).next_u64(), backward.at(1, 2).next_u64());
  EXPECT_NE(ChannelStreams(43, 4).at(1, 2).next_u64(), ChannelStreams(43, 4).at(2, 1).next_u64());
  EXPECT_NE(ChannelStreams(43, 4).at(1, 2).next_u64(), ChannelStreams(44, 4).at(1, 2).next_u64());
}

// The flat per-source store hands out the same draws as a stream derived on
// its own, whatever order the channels are first used in: one source with
// 699 destinations (the root of JK and the flat algorithms) and eight more
// sources interleaved with it, each met in a fresh shuffled order per round.
TEST(ChannelStreams, DrawsMatchFreshStreamsInAnyFirstUseOrder) {
  constexpr int kRanks = 700;
  constexpr std::uint64_t kSeed = 91;
  ChannelStreams streams(kSeed, kRanks);
  std::map<std::pair<int, int>, std::vector<std::uint64_t>> drawn;
  std::vector<int> order;
  for (int dst = 1; dst < kRanks; ++dst) order.push_back(dst);
  Rng shuffle(5);
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[shuffle.uniform_index(i + 1)]);
    }
    for (const int dst : order) {
      drawn[{0, dst}].push_back(streams.at(0, dst).next_u64());
      const int src = 1 + dst % 8;
      if (src != dst) drawn[{src, dst}].push_back(streams.at(src, dst).next_u64());
    }
  }
  for (const auto& [channel, draws] : drawn) {
    ChannelStreams fresh(kSeed, kRanks);
    Rng& rng = fresh.at(channel.first, channel.second);
    for (const std::uint64_t draw : draws) {
      ASSERT_EQ(draw, rng.next_u64()) << channel.first << " -> " << channel.second;
    }
  }
}

// A held stream survives first uses on every other source: each source owns
// its storage, which is what lets a burst keep both of its legs' streams.
TEST(ChannelStreams, ReferenceSurvivesLookupsOnOtherSources) {
  ChannelStreams streams(17, 64);
  Rng& held = streams.at(3, 7);
  Rng twin = held;
  for (int src = 0; src < 64; ++src) {
    if (src == 3) continue;
    for (int dst = 0; dst < 64; ++dst) streams.at(src, dst).next_u64();
  }
  EXPECT_EQ(&held, &streams.at(3, 7));
  for (int i = 0; i < 8; ++i) EXPECT_EQ(held.next_u64(), twin.next_u64());
}

}  // namespace
}  // namespace hcs::sim
