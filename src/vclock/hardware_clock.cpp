#include "vclock/hardware_clock.hpp"

#include <cmath>
#include <stdexcept>

namespace hcs::vclock {

HardwareClock::HardwareClock(sim::Simulation& sim, const topology::ClockDriftParams& params,
                             std::uint64_t seed)
    : sim_(&sim), params_(params), path_rng_(seed), noise_rng_(seed ^ 0x5bf0'3635'dea8'39a9ULL) {
  if (params_.skew_segment_s <= 0) {
    throw std::invalid_argument("HardwareClock: skew_segment_s must be > 0");
  }
  initial_offset_ = path_rng_.uniform(-params_.initial_offset_abs, params_.initial_offset_abs);
  segment_skews_.push_back(path_rng_.uniform(-params_.base_skew_abs, params_.base_skew_abs));
  boundary_locals_.push_back(initial_offset_);
}

void HardwareClock::extend_path(std::size_t segment) const {
  while (segment_skews_.size() <= segment) {
    const double prev = segment_skews_.back();
    segment_skews_.push_back(prev + path_rng_.normal(0.0, params_.skew_walk_sd));
    boundary_locals_.push_back(boundary_locals_.back() + (1.0 + prev) * params_.skew_segment_s);
  }
}

double HardwareClock::skew_at(sim::Time true_time) const {
  if (true_time < 0) throw std::invalid_argument("HardwareClock: negative time");
  const auto seg = static_cast<std::size_t>(true_time / params_.skew_segment_s);
  if (seg >= segment_skews_.size()) extend_path(seg);
  double skew = segment_skews_[seg];
  for (const auto& [when, delta_skew] : freq_jumps_) {
    if (true_time > when) skew += delta_skew;
  }
  return skew;
}

double HardwareClock::at_exact(sim::Time true_time) const {
  if (true_time < 0) throw std::invalid_argument("HardwareClock: negative time");
  const auto seg = static_cast<std::size_t>(true_time / params_.skew_segment_s);
  if (seg >= segment_skews_.size()) extend_path(seg);
  const double seg_start = static_cast<double>(seg) * params_.skew_segment_s;
  double value = boundary_locals_[seg] + (1.0 + segment_skews_[seg]) * (true_time - seg_start);
  for (const auto& [when, delta] : steps_) {
    if (true_time >= when) value += delta;
  }
  for (const auto& [when, delta_skew] : freq_jumps_) {
    if (true_time > when) value += delta_skew * (true_time - when);
  }
  return value;
}

void HardwareClock::inject_step(sim::Time when, double delta) {
  if (when < 0) throw std::invalid_argument("HardwareClock: negative step time");
  steps_.emplace_back(when, delta);
}

void HardwareClock::inject_frequency_jump(sim::Time when, double delta_skew) {
  if (when < 0) throw std::invalid_argument("HardwareClock: negative frequency-jump time");
  freq_jumps_.emplace_back(when, delta_skew);
}

double HardwareClock::at(sim::Time true_time) {
  double value = at_exact(true_time);
  if (params_.read_noise_sd > 0) value += noise_rng_.normal(0.0, params_.read_noise_sd);
  if (params_.read_resolution > 0) {
    value = std::floor(value / params_.read_resolution) * params_.read_resolution;
  }
  return value;
}

}  // namespace hcs::vclock
