// Compile fixture: all randomness derives from the run seed, or from a seed
// the standard fixes.  Compiles with no diagnostic.
#include <cstdint>
#include <random>

#include "sim/rng.hpp"

namespace fixture {

struct Streams {
  explicit Streams(std::uint64_t seed) : rng_(seed) {}
  std::mt19937_64 rng_;
};

// Explicitly seeded locals are fine.
double jitter(std::uint64_t seed) {
  std::mt19937 gen(seed);
  return static_cast<double>(gen());
}

// A default-constructed std::mt19937 starts from the standard's fixed seed
// (5489), so its sequence is the same everywhere.
std::uint32_t fixed_draw() {
  std::mt19937 gen;
  return gen();
}

// The project RNG carries the per-trial seed.
int draw(hcs::sim::Rng& rng) { return static_cast<int>(rng.uniform(0.0, 5.0)); }

}  // namespace fixture
