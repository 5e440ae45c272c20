// HlHCA — hierarchical clock synchronization (paper §IV, Algorithm 4).
//
// The machine's architectural levels each get their own communicator and
// their own synchronization algorithm.  H2HCA uses {inter-node, intra-node};
// H3HCA adds a socket level (paper §IV-D).  Communicator creation happens
// inside sync_clocks so its (collective) cost is charged to the
// synchronization duration, exactly as the paper measures it.
//
// Clocks nest: the clock produced at level k becomes the base clock passed
// to level k+1, yielding chains like cm(cm(0,2),4) (paper §IV-B).
#pragma once

#include <memory>

#include "clocksync/sync_algorithm.hpp"

namespace hcs::clocksync {

class HierarchicalSync final : public ClockSync {
 public:
  /// Two levels (H2HCA): `top` between node leaders, `bottom` within each
  /// node.  Three levels (H3HCA, mid != nullptr): `top` between node
  /// leaders, `mid` between socket leaders within a node, `bottom` within
  /// each socket.
  HierarchicalSync(std::unique_ptr<ClockSync> top, std::unique_ptr<ClockSync> mid,
                   std::unique_ptr<ClockSync> bottom);

  sim::Task<SyncResult> sync_clocks(simmpi::Comm& comm, vclock::ClockPtr clk) override;
  std::string name() const override;

  int levels() const { return mid_ ? 3 : 2; }

 private:
  sim::Task<SyncResult> sync_h2(simmpi::Comm& comm, vclock::ClockPtr clk);
  sim::Task<SyncResult> sync_h3(simmpi::Comm& comm, vclock::ClockPtr clk);
  sim::Task<SyncResult> run_level(ClockSync& algo, simmpi::Comm& level, vclock::ClockPtr base);
  sim::Task<SyncResult> run_level_healing(ClockSync& algo, simmpi::Comm& level,
                                          vclock::ClockPtr base);

  std::unique_ptr<ClockSync> top_;
  std::unique_ptr<ClockSync> mid_;  // nullptr for H2HCA
  std::unique_ptr<ClockSync> bottom_;
};

/// Convenience factories matching the paper's two realizations.
std::unique_ptr<ClockSync> make_h2hca(std::unique_ptr<ClockSync> top,
                                      std::unique_ptr<ClockSync> bottom);
std::unique_ptr<ClockSync> make_h3hca(std::unique_ptr<ClockSync> top,
                                      std::unique_ptr<ClockSync> mid,
                                      std::unique_ptr<ClockSync> bottom);

}  // namespace hcs::clocksync
