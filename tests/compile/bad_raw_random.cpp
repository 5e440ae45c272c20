// Compile fixture: nondeterministic or implementation-defined randomness.
// util/poison.hpp poisons these names, so each annotated line fails to
// compile.
#include <cstdlib>
#include <random>

namespace fixture {

int roll() {
  std::random_device rd;  // expect-error
  (void)rd;
  std::default_random_engine gen(7);  // expect-error
  (void)gen;
  return rand() % 6;  // expect-error
}

void reseed() {
  srand(42);  // expect-error
}

}  // namespace fixture
