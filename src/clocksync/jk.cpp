#include "clocksync/jk.hpp"

#include <stdexcept>

#include "clocksync/model_learning.hpp"
#include "vclock/global_clock.hpp"

namespace hcs::clocksync {

JKSync::JKSync(SyncConfig cfg, std::unique_ptr<OffsetAlgorithm> oalg)
    : cfg_(cfg), oalg_(std::move(oalg)) {
  if (!oalg_) throw std::invalid_argument("JKSync: null offset algorithm");
}

std::string JKSync::name() const { return sync_label("jk", cfg_, *oalg_); }

sim::Task<SyncResult> JKSync::sync_clocks(simmpi::Comm& comm, vclock::ClockPtr clk) {
  const int r = comm.rank();
  if (r == 0) {
    for (int client = 1; client < comm.size(); ++client) {
      (void)co_await learn_clock_model(comm, 0, client, *clk, *oalg_, cfg_);
    }
    co_return SyncResult{vclock::GlobalClockLM::identity(std::move(clk)), {}};
  }
  const LearnResult learned = co_await learn_clock_model(comm, 0, r, *clk, *oalg_, cfg_);
  co_return SyncResult{std::make_shared<vclock::GlobalClockLM>(std::move(clk), learned.model),
                       learned.report};
}

}  // namespace hcs::clocksync
