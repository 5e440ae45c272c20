// HCA3 (paper Algorithm 1, Fig. 1b) — the paper's primary contribution.
//
// The reference time is pushed down a binomial tree from rank 0 in O(log p)
// rounds (PulseSync-style).  In each round a reference process timestamps
// with its *already synchronized* global clock, so every client fits its
// model directly against (an emulation of) the root clock at the moment it
// will use it — avoiding both HCA2's model composition and its extrapolation
// of stale fits under time-varying drift.
#pragma once

#include "clocksync/sync_algorithm.hpp"

namespace hcs::clocksync {

class HCA3Sync final : public ClockSync {
 public:
  HCA3Sync(SyncConfig cfg, std::unique_ptr<OffsetAlgorithm> oalg);

  sim::Task<SyncResult> sync_clocks(simmpi::Comm& comm, vclock::ClockPtr clk) override;
  std::string name() const override;

 private:
  sim::Task<SyncResult> sync_once(simmpi::Comm& comm, vclock::ClockPtr clk);
  sim::Task<SyncResult> sync_healing(simmpi::Comm& comm, vclock::ClockPtr clk);

  SyncConfig cfg_;
  std::unique_ptr<OffsetAlgorithm> oalg_;
};

}  // namespace hcs::clocksync
