#include "vclock/global_clock.hpp"

#include <cmath>
#include <cstddef>
#include <stdexcept>

namespace hcs::vclock {

namespace {

// One step down a decorator chain.  Returns the base clock and writes the
// level's model, or nullptr at the innermost non-model clock.
const Clock* chain_step(const Clock* cur, LinearModel* out) {
  const auto* lm = dynamic_cast<const GlobalClockLM*>(cur);
  if (lm == nullptr) return nullptr;
  *out = lm->model();
  return lm->base().get();
}

}  // namespace

GlobalClockLM::GlobalClockLM(ClockPtr base, LinearModel lm) : base_(std::move(base)), lm_(lm) {
  if (!base_) throw std::invalid_argument("GlobalClockLM: null base clock");
}

ClockPtr GlobalClockLM::identity(ClockPtr base) {
  return std::make_shared<GlobalClockLM>(std::move(base), LinearModel{});
}

double GlobalClockLM::now() { return lm_.apply(base_->now()); }

std::vector<double> flatten_clock(const ClockPtr& clock) {
  std::vector<LinearModel> chain;
  LinearModel lm;
  for (const Clock* cur = clock.get(); (cur = chain_step(cur, &lm)) != nullptr;) {
    chain.push_back(lm);
  }
  std::vector<double> buffer;
  buffer.reserve(1 + 2 * chain.size());
  buffer.push_back(static_cast<double>(chain.size()));
  for (const LinearModel& lm : chain) {
    buffer.push_back(lm.slope);
    buffer.push_back(lm.intercept);
  }
  return buffer;
}

ClockPtr unflatten_clock(ClockPtr base, const std::vector<double>& buffer) {
  if (buffer.empty()) throw std::invalid_argument("unflatten_clock: empty buffer");
  const auto depth = static_cast<std::size_t>(std::llround(buffer[0]));
  if (buffer.size() != 1 + 2 * depth) {
    throw std::invalid_argument("unflatten_clock: malformed buffer");
  }
  // The buffer lists models outermost-first; rebuild innermost-first.
  ClockPtr clock = std::move(base);
  for (std::size_t level = depth; level-- > 0;) {
    const LinearModel lm{buffer[1 + 2 * level], buffer[2 + 2 * level]};
    clock = std::make_shared<GlobalClockLM>(std::move(clock), lm);
  }
  return clock;
}

LinearModel collapse_models(const ClockPtr& clock) {
  LinearModel acc{};  // identity
  LinearModel lm;
  for (const Clock* cur = clock.get(); (cur = chain_step(cur, &lm)) != nullptr;) {
    acc = merge(acc, lm);
  }
  return acc;
}

}  // namespace hcs::vclock
