#include "clocksync/hca2.hpp"

#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "clocksync/healing.hpp"
#include "clocksync/model_learning.hpp"
#include "simmpi/collectives.hpp"
#include "util/vec.hpp"
#include "vclock/global_clock.hpp"

namespace hcs::clocksync {

namespace {
// User tags for the model-table messages flowing up the tree; bursts carry
// no tags, so any distinct per-round values work.
constexpr int kTableTagBase = 7100;
constexpr int kRemainderTableTag = 7099;

// Merges a child's (rank, slope, intercept) triples into `into`, composing
// every entry with `to_child`, the model mapping the child's clock to ours.
void merge_table(std::map<int, vclock::LinearModel>& into, const vclock::LinearModel& to_child,
                 std::span<const double> triples) {
  if (triples.size() % 3 != 0) throw std::invalid_argument("HCA2: malformed model table");
  for (std::size_t i = 0; i < triples.size(); i += 3) {
    into[static_cast<int>(triples[i])] = merge(to_child, {triples[i + 1], triples[i + 2]});
  }
}
}  // namespace

HCA2Sync::HCA2Sync(SyncConfig cfg, std::unique_ptr<OffsetAlgorithm> oalg)
    : cfg_(cfg), oalg_(std::move(oalg)) {
  if (!oalg_) throw std::invalid_argument("HCA2Sync: null offset algorithm");
}

std::string HCA2Sync::name() const { return sync_label("hca2", cfg_, *oalg_); }

sim::Task<LearnResult> HCA2Sync::run_tree_and_scatter(simmpi::Comm& comm, vclock::ClockPtr clk) {
  const int nprocs = comm.size();
  const int r = comm.rank();
  SyncReport report;

  int nrounds = 0;
  while ((2 << nrounds) <= nprocs) ++nrounds;
  const int max_power = 1 << nrounds;

  // Models of my subtree, mapping each member's clock to mine.
  std::map<int, vclock::LinearModel> models;
  models[r] = vclock::LinearModel{};  // self: identity

  // Remainder ranks first, so their models join their partner's subtree
  // before the tree phase sends it upward.
  if (r >= max_power) {
    const int partner = r - max_power;
    const LearnResult learned = co_await learn_clock_model(comm, partner, r, *clk, *oalg_, cfg_);
    report.merge(learned.report);
    // A one-entry table: its count, then my (rank, slope, intercept) triple.
    co_await comm.send(partner, kRemainderTableTag,
                       util::vec(1.0, static_cast<double>(r), learned.model.slope,
                                 learned.model.intercept));
  } else if (r + max_power < nprocs) {
    const int partner = r + max_power;
    (void)co_await learn_clock_model(comm, r, partner, *clk, *oalg_, cfg_);
    std::optional<simmpi::Message> msg = co_await comm.recv_ft(partner, kRemainderTableTag);
    // The child's table is already expressed relative to my clock.  A dead
    // remainder rank never joins the table; the root NaN-fills its slot.
    if (msg) {
      if (msg->data.size() != 4) throw std::invalid_argument("HCA2: malformed model table");
      merge_table(models, vclock::LinearModel{}, std::span<const double>(msg->data).subspan(1));
    }
  }

  // Inverted binomial tree: leaves first (paper Fig. 1a).
  if (r < max_power) {
    for (int k = 1; k <= nrounds; ++k) {
      const int step = 1 << k;
      const int half = 1 << (k - 1);
      if (r % step == 0) {
        const int child = r + half;
        if (child < max_power) {
          (void)co_await learn_clock_model(comm, r, child, *clk, *oalg_, cfg_);
          std::optional<simmpi::Message> msg = co_await comm.recv_ft(child, kTableTagBase + k);
          // A dead child takes its whole subtree's models with it; the root
          // NaN-fills the missing ranks and they report kFailed below.
          if (!msg) continue;
          if (msg->data.size() < 3) throw std::logic_error("HCA2: missing child model");
          // First triple is the child's own model cm(r, child); the rest of
          // the table is relative to the child and composes through it.
          const vclock::LinearModel to_child{msg->data[1], msg->data[2]};
          models[child] = to_child;
          merge_table(models, to_child, std::span<const double>(msg->data).subspan(3));
        }
      } else if (r % step == half) {
        const int parent = r - half;
        const LearnResult learned =
            co_await learn_clock_model(comm, parent, r, *clk, *oalg_, cfg_);
        report.merge(learned.report);
        // Send my own model first, then my subtree (relative to me).
        std::vector<double> payload;
        payload.push_back(static_cast<double>(r));
        payload.push_back(learned.model.slope);
        payload.push_back(learned.model.intercept);
        for (const auto& [rank, model] : models) {
          if (rank == r) continue;
          payload.push_back(static_cast<double>(rank));
          payload.push_back(model.slope);
          payload.push_back(model.intercept);
        }
        co_await comm.send(parent, kTableTagBase + k, std::move(payload));
        break;  // my part in the tree is done; wait for the scatter
      }
    }
  }

  // Root distributes one (slope, intercept) pair per rank.
  std::vector<double> flat;
  if (r == 0) {
    if (static_cast<int>(models.size()) != nprocs && !crash_model_active(comm)) {
      throw std::logic_error("HCA2: root collected " + std::to_string(models.size()) +
                             " models for " + std::to_string(nprocs) + " ranks");
    }
    // Under the crash model dead or orphaned ranks are simply absent; their
    // slots scatter as NaN and the receiving rank falls back below.
    flat.assign(2 * static_cast<std::size_t>(nprocs),
                std::numeric_limits<double>::quiet_NaN());
    for (const auto& [rank, lm] : models) {
      flat[2 * static_cast<std::size_t>(rank)] = lm.slope;
      flat[2 * static_cast<std::size_t>(rank) + 1] = lm.intercept;
    }
  }
  const std::vector<double> mine =
      co_await simmpi::scatter(comm, std::move(flat), 2, 0, simmpi::ScatterAlgo::kBinomial);
  vclock::LinearModel model{mine.at(0), mine.at(1)};
  if (std::isnan(model.slope) || std::isnan(model.intercept)) {
    // My model never reached the root (I or an ancestor was orphaned by a
    // crash, or the scatter path died): identity fallback, reported failed.
    model = vclock::LinearModel{};
    report.health = SyncHealth::kFailed;
  }
  co_return LearnResult{model, report};
}

sim::Task<SyncResult> HCA2Sync::sync_clocks(simmpi::Comm& comm, vclock::ClockPtr clk) {
  const LearnResult learned = co_await run_tree_and_scatter(comm, clk);
  co_return SyncResult{std::make_shared<vclock::GlobalClockLM>(std::move(clk), learned.model),
                       learned.report};
}

}  // namespace hcs::clocksync
