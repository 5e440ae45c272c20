// Logical, global clock: a linear model stacked on a base clock.
//
// GlobalClockLM is the decorator the paper describes in §IV-B: a synchronized
// clock wraps either the hardware clock (flat algorithms) or another
// GlobalClockLM (hierarchical synchronization), producing nested models like
// cm(cm(0,2),4).  flatten()/unflatten() serialize the decorator chain into a
// buffer of doubles for ClockPropSync's broadcast (paper Alg. 3).
#pragma once

#include <vector>

#include "vclock/clock.hpp"
#include "vclock/linear_model.hpp"

namespace hcs::vclock {

class GlobalClockLM final : public Clock {
 public:
  GlobalClockLM(ClockPtr base, LinearModel lm);

  /// The paper's GLOBALCLOCKLM(clk, 0, 0) "dummy clock": identity model.
  static ClockPtr identity(ClockPtr base);

  double at(sim::Time true_time) override { return lm_.apply(base_->at(true_time)); }
  double at_exact(sim::Time true_time) const override {
    return lm_.apply(base_->at_exact(true_time));
  }
  double now() override;

  const LinearModel& model() const { return lm_; }
  const ClockPtr& base() const { return base_; }

  /// Adds `delta` to the intercept (HCA's final offset-adjustment round).
  void adjust_intercept(double delta) { lm_.intercept += delta; }

 private:
  ClockPtr base_;
  LinearModel lm_;
};

/// Serializes the GlobalClockLM chain above the innermost non-model clock, outermost model first:
/// [depth, s_1, i_1, ..., s_d, i_d].
std::vector<double> flatten_clock(const ClockPtr& clock);

/// Rebuilds the chain described by `buffer` on top of `base`.  The caller
/// must guarantee `base` ticks identically to the clock that was flattened
/// (same time source) — exactly ClockPropSync's applicability condition.
ClockPtr unflatten_clock(ClockPtr base, const std::vector<double>& buffer);

/// Collapses a decorator chain into one equivalent LinearModel (for tests
/// and for reporting).
LinearModel collapse_models(const ClockPtr& clock);

}  // namespace hcs::vclock
