// Deterministic random number generation for the simulator.
//
// xoshiro256** seeded via splitmix64: fast, high quality, and — unlike
// std::mt19937 + std::normal_distribution — bit-identical across standard
// library implementations, which the reproducibility tests rely on.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace hcs::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n); n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Marsaglia polar method (one spare cached).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double sd);

  /// Exponential with the given mean (mean <= 0 returns 0).
  double exponential(double mean);

  /// Log-normal parameterized by the *underlying* normal's mu/sigma.
  double lognormal(double mu, double sigma);

  /// Bernoulli trial.
  bool bernoulli(double p);

  /// Derives an independent child stream (used for per-run seeds).
  Rng split();

 private:
  std::uint64_t s_[4];
  // normal()'s cached second value; NaN while none is cached.  The polar
  // method never yields NaN, and a flag beside the double would cost 8 B
  // more per stream (ChannelStreams holds one per channel).
  double spare_ = std::numeric_limits<double>::quiet_NaN();
};

/// splitmix64 step, exposed for seed derivation in tests and harnesses.
std::uint64_t splitmix64(std::uint64_t& state);

/// One private stream per (src, dst) channel of `nranks` ranks, each derived
/// from `seed` and the channel and created on first use.  Keying randomness
/// by channel rather than by global draw order keeps a channel's draws on
/// its sender's timeline, so they do not depend on how events interleave
/// across channels or shards.
///
/// Storage is flat and per source: each source keeps its channels in one
/// vector sorted by destination.  Shards touch disjoint sources, so
/// per-source storage needs no locking, where one shared table would race.
class ChannelStreams {
 public:
  ChannelStreams(std::uint64_t seed, int nranks);

  /// The (src -> dst) channel's stream.  The reference stays valid until
  /// the next at() with the same `src` (a first use may grow that source's
  /// storage); calls on other sources never move it.
  Rng& at(int src, int dst);

 private:
  struct Channel {
    int dst;
    Rng rng;
  };
  std::uint64_t seed_;
  std::vector<std::vector<Channel>> sources_;  // [src], sorted by dst
};

}  // namespace hcs::sim
