// A sync result's clock owns everything it reads: its chain of models and the
// hardware clock beneath them.  So it outlives its World and reads the same
// after the World is destroyed, for flat algorithms and for a hierarchical
// ClockPropSync stack alike, at one shard and at several.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "clocksync/factory.hpp"
#include "simmpi/world.hpp"
#include "topology/presets.hpp"

namespace hcs::clocksync {
namespace {

std::vector<std::uint64_t> readings(const std::vector<vclock::ClockPtr>& clocks, sim::Time t) {
  std::vector<std::uint64_t> out;
  for (const vclock::ClockPtr& clk : clocks) {
    out.push_back(std::bit_cast<std::uint64_t>(clk->at_exact(t)));
  }
  return out;
}

TEST(ClockLifetime, ResultClocksReadTheSameAfterTheWorldDies) {
  for (const std::string label :
       {"jk/20/skampi_offset/5", "hca/20/skampi_offset/5", "hca2/20/skampi_offset/5",
        "hca3/20/skampi_offset/5", "top/hca3/20/skampi_offset/5/bottom/clockpropagation"}) {
    for (const int shards : {1, 2}) {
      std::vector<vclock::ClockPtr> clocks;
      std::vector<std::uint64_t> before;
      sim::Time probe = 0.0;
      {
        simmpi::World w(topology::testbox(4, 2), 13, fault::FaultPlan{}, shards);
        clocks.resize(static_cast<std::size_t>(w.size()));
        std::vector<sim::Time> done(clocks.size());  // per rank: shards run on their own threads
        w.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
          auto sync = make_sync(label);
          clocks[static_cast<std::size_t>(ctx.rank())] =
              (co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock())).clock;
          done[static_cast<std::size_t>(ctx.rank())] = ctx.sim().now();
        });
        probe = *std::max_element(done.begin(), done.end()) + 1.0;
        before = readings(clocks, probe);
      }
      ASSERT_EQ(before.size(), 8u) << label;
      EXPECT_EQ(readings(clocks, probe), before) << label << " at " << shards << " shards";
    }
  }
}

}  // namespace
}  // namespace hcs::clocksync
