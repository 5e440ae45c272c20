#include "sim/rng.hpp"

#include <algorithm>
#include <cmath>

namespace hcs::sim {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  // Rejection sampling to remove modulo bias.
  const std::uint64_t threshold = (0ULL - n) % n;
  for (;;) {
    const std::uint64_t x = next_u64();
    if (x >= threshold) return x % n;
  }
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * factor;
  has_spare_ = true;
  return u * factor;
}

double Rng::normal(double mean, double sd) { return mean + sd * normal(); }

double Rng::exponential(double mean) {
  if (mean <= 0.0) return 0.0;
  return -mean * std::log1p(-uniform());
}

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

bool Rng::bernoulli(double p) { return uniform() < p; }

Rng Rng::split() { return Rng(next_u64()); }

ChannelStreams::ChannelStreams(std::uint64_t seed, int nranks)
    : seed_(seed), sources_(static_cast<std::size_t>(nranks > 0 ? nranks : 0)) {}

Rng& ChannelStreams::at(int src, int dst) {
  std::vector<Channel>& channels = sources_[static_cast<std::size_t>(src)];
  auto it = std::lower_bound(channels.begin(), channels.end(), dst,
                             [](const Channel& c, int d) { return c.dst < d; });
  if (it == channels.end() || it->dst != dst) {
    std::uint64_t state = seed_ ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(src) + 1)) ^
                          (0xd1b54a32d192ed03ULL * (static_cast<std::uint64_t>(dst) + 1));
    if (channels.empty()) {
      // Most sources use one to three channels.  Starting at two slots skips
      // the 1 -> 2 regrowth, whose freed block the allocator rarely reuses
      // (bench_scale, HCA3 at 16k ranks: 4.5 MiB more peak RSS without it).
      channels.reserve(2);
      it = channels.begin();
    }
    it = channels.insert(it, Channel{dst, Rng(splitmix64(state))});
  }
  return it->rng;
}

}  // namespace hcs::sim
