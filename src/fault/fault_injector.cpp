#include "fault/fault_injector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "trace/metrics.hpp"

namespace hcs::fault {

namespace {
constinit trace::CounterHandle g_drops{"fault.net.drops"};
constinit trace::CounterHandle g_duplicates{"fault.net.duplicates"};
constinit trace::CounterHandle g_delayed{"fault.net.delayed"};
constinit trace::CounterHandle g_pauses{"fault.pause.holds"};
constinit trace::CounterHandle g_crash_drops{"fault.crash.drops"};
constinit trace::HistogramHandle g_extra_delay{"fault.net.extra_delay"};
}  // namespace

FaultInjector::FaultInjector(const FaultPlan& plan, std::uint64_t seed, int nranks)
    : channels_(seed ^ (plan.seed() * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL), nranks) {
  // Per-rank lifecycle events: (time, is_up).  crash/leave go down at `at`,
  // rejoin comes back up, join is down from 0 until `at`.
  std::vector<std::vector<std::pair<sim::Time, bool>>> lifecycle(
      static_cast<std::size_t>(nranks > 0 ? nranks : 0));
  churn_ranks_.assign(static_cast<std::size_t>(nranks > 0 ? nranks : 0), false);
  for (const FaultSpec& s : plan.specs()) {
    if (s.rank >= nranks || s.peer >= nranks) {
      throw std::invalid_argument("fault spec targets rank " +
                                  std::to_string(s.rank >= nranks ? s.rank : s.peer) +
                                  " but the machine has only " + std::to_string(nranks) +
                                  " ranks: " + s.describe());
    }
    switch (s.kind) {
      case FaultKind::kDrop:
        if (s.p > 0.0) drops_rules_.push_back({s.level, s.p});
        break;
      case FaultKind::kDuplicate:
        if (s.p > 0.0) dup_rules_.push_back({s.level, s.p});
        break;
      case FaultKind::kReorder:
        if (s.p > 0.0) reorder_rules_.push_back({s.level, s.p, s.delay});
        break;
      case FaultKind::kBurst: {
        // Log-normal heavy tail with sigma = 1 and the mean pinned to the
        // spec's delay: mean = exp(mu + sigma^2/2)  =>  mu = ln(delay) - 1/2.
        BurstRule rule{s.level, s.period, s.duration, s.phase, std::log(s.delay) - 0.5, 1.0};
        burst_rules_.push_back(rule);
        break;
      }
      case FaultKind::kStraggler:
        if (s.factor > 1.0) straggler_rules_.push_back({s.rank, s.factor});
        break;
      case FaultKind::kClockStep:
        clock_faults_.push_back({FaultKind::kClockStep, s.rank, s.at, s.step});
        break;
      case FaultKind::kFreqJump:
        clock_faults_.push_back({FaultKind::kFreqJump, s.rank, s.at, s.ppm * 1e-6});
        break;
      case FaultKind::kPause:
        pauses_.push_back({s.rank, s.at, s.at + s.duration});
        break;
      case FaultKind::kCrash:
        lifecycle[static_cast<std::size_t>(s.rank)].push_back({s.at, false});
        break;
      case FaultKind::kLeave:
        lifecycle[static_cast<std::size_t>(s.rank)].push_back({s.at, false});
        churn_ranks_[static_cast<std::size_t>(s.rank)] = true;
        break;
      case FaultKind::kJoin:
        lifecycle[static_cast<std::size_t>(s.rank)].push_back({0.0, false});
        lifecycle[static_cast<std::size_t>(s.rank)].push_back({s.at, true});
        churn_ranks_[static_cast<std::size_t>(s.rank)] = true;
        break;
      case FaultKind::kRejoin:
        lifecycle[static_cast<std::size_t>(s.rank)].push_back({s.at, true});
        churn_ranks_[static_cast<std::size_t>(s.rank)] = true;
        break;
      case FaultKind::kCrashLink: {
        const int a = s.rank < s.peer ? s.rank : s.peer;
        const int b = s.rank < s.peer ? s.peer : s.rank;
        link_cuts_.push_back({a, b, s.at});
        break;
      }
    }
  }
  // Assemble the per-rank down intervals from the lifecycle events: stable
  // alternation of down/up, earliest down wins when two overlap (matching
  // the old duplicate-crash rule), every up must close an open interval.
  bool any_lifecycle = false;
  for (const auto& events : lifecycle) {
    if (!events.empty()) any_lifecycle = true;
  }
  if (any_lifecycle) {
    crash_times_.assign(static_cast<std::size_t>(nranks), sim::kTimeInfinity);
    down_.resize(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      auto events = lifecycle[static_cast<std::size_t>(r)];
      if (events.empty()) continue;
      std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
        return a.first != b.first ? a.first < b.first : a.second < b.second;
      });
      auto& intervals = down_[static_cast<std::size_t>(r)];
      bool open = false;
      sim::Time open_begin = 0.0;
      for (const auto& [at, up] : events) {
        if (!up) {
          if (!open) {
            open = true;
            open_begin = at;
          }  // else: already down, earliest wins
        } else {
          if (!open || at <= open_begin) {
            throw std::invalid_argument("rejoin:rank=" + std::to_string(r) +
                                        " must follow a crash/leave/join of the same rank");
          }
          intervals.push_back({open_begin, at});
          open = false;
        }
      }
      if (open) intervals.push_back({open_begin, sim::kTimeInfinity});
      crash_times_[static_cast<std::size_t>(r)] = intervals.front().begin;
      for (const DownInterval& iv : intervals) {
        if (iv.begin > 0.0) transitions_.push_back(iv.begin);
        if (iv.end < sim::kTimeInfinity) transitions_.push_back(iv.end);
      }
    }
    std::sort(transitions_.begin(), transitions_.end());
  }
  churn_active_ = false;
  for (const bool c : churn_ranks_) churn_active_ = churn_active_ || c;
  crash_active_ = !crash_times_.empty() || !link_cuts_.empty();
  net_active_ = !drops_rules_.empty() || !dup_rules_.empty() || !reorder_rules_.empty() ||
                !burst_rules_.empty() || !straggler_rules_.empty();
  // Every fault metric exists in the registry active now, fired or not.
  for (trace::CounterHandle* h : {&g_drops, &g_duplicates, &g_delayed, &g_pauses,
                                  &g_crash_drops}) {
    h->get();
  }
  g_extra_delay.get();
}

bool FaultInjector::is_down(int rank, sim::Time t) const noexcept {
  if (rank < 0 || rank >= static_cast<int>(down_.size())) return false;
  for (const DownInterval& iv : down_[static_cast<std::size_t>(rank)]) {
    if (t >= iv.begin && t < iv.end) return true;
    if (t < iv.begin) break;  // sorted: no later interval can cover t
  }
  return false;
}

sim::Time FaultInjector::next_down(int rank, sim::Time t) const noexcept {
  if (rank < 0 || rank >= static_cast<int>(down_.size())) return sim::kTimeInfinity;
  for (const DownInterval& iv : down_[static_cast<std::size_t>(rank)]) {
    if (t < iv.end) return iv.begin;  // covering interval, or the next one
  }
  return sim::kTimeInfinity;
}

int FaultInjector::incarnation(int rank, sim::Time t) const noexcept {
  if (rank < 0 || rank >= static_cast<int>(down_.size())) return 0;
  int n = 0;
  for (const DownInterval& iv : down_[static_cast<std::size_t>(rank)]) {
    if (iv.end <= t) ++n;
  }
  return n;
}

int FaultInjector::incarnation_count(int rank) const noexcept {
  if (rank < 0 || rank >= static_cast<int>(down_.size())) return 1;
  return static_cast<int>(down_[static_cast<std::size_t>(rank)].size()) + 1;
}

sim::Time FaultInjector::up_start(int rank, int k) const noexcept {
  if (k <= 0) return 0.0;
  if (rank < 0 || rank >= static_cast<int>(down_.size())) return sim::kTimeInfinity;
  const auto& intervals = down_[static_cast<std::size_t>(rank)];
  if (k > static_cast<int>(intervals.size())) return sim::kTimeInfinity;
  return intervals[static_cast<std::size_t>(k - 1)].end;
}

sim::Time FaultInjector::up_end(int rank, int k) const noexcept {
  if (rank < 0 || rank >= static_cast<int>(down_.size())) return sim::kTimeInfinity;
  const auto& intervals = down_[static_cast<std::size_t>(rank)];
  if (k < 0 || k >= static_cast<int>(intervals.size())) return sim::kTimeInfinity;
  return intervals[static_cast<std::size_t>(k)].begin;
}

std::uint64_t FaultInjector::membership_epoch(sim::Time t) const noexcept {
  const auto it = std::upper_bound(transitions_.begin(), transitions_.end(), t);
  return static_cast<std::uint64_t>(it - transitions_.begin());
}

sim::Time FaultInjector::link_down_time(int a, int b) const noexcept {
  if (a > b) {
    const int tmp = a;
    a = b;
    b = tmp;
  }
  sim::Time out = sim::kTimeInfinity;
  for (const LinkCut& cut : link_cuts_) {
    if (cut.a == a && cut.b == b && cut.at < out) out = cut.at;
  }
  return out;
}

sim::Time FaultInjector::first_failure_time() const noexcept {
  sim::Time first = sim::kTimeInfinity;
  for (const sim::Time t : crash_times_) first = std::min(first, t);
  for (const LinkCut& cut : link_cuts_) first = std::min(first, cut.at);
  return first;
}

bool FaultInjector::crash_delivered(int src, int dst, sim::Time send,
                                    sim::Time arrive) const noexcept {
  if (is_down(src, arrive) || is_down(dst, arrive) || arrive >= link_down_time(src, dst)) {
    return false;
  }
  // Stale-view rejection: under churn a message may not cross an endpoint
  // restart in flight — both ends must be in the same incarnation at send
  // and at arrival.  With no churn every incarnation is 0, so pure crash
  // plans keep the exact historical rule (arrive before both crash times).
  if (churn_active_) {
    if (incarnation(src, send) != incarnation(src, arrive)) return false;
    if (incarnation(dst, send) != incarnation(dst, arrive)) return false;
  }
  return true;
}

sim::Time FaultInjector::live_until(int a, int b, sim::Time t0) const noexcept {
  return std::min({next_down(a, t0), next_down(b, t0), link_down_time(a, b)});
}

void FaultInjector::count_crash_drop() {
  if (trace::Counter* m = g_crash_drops.get()) m->inc();
}

NetFaultDecision FaultInjector::on_message(int src, int dst, int level, sim::Time now) {
  NetFaultDecision d;
  sim::Rng& rng = channels_.at(src, dst);
  for (const StragglerRule& r : straggler_rules_) {
    if (src == r.rank || dst == r.rank) d.delay_factor *= r.factor;
  }
  for (const BurstRule& r : burst_rules_) {
    if (!matches(r.level, level)) continue;
    const double in_period = std::fmod(now - r.phase, r.period);
    if (now >= r.phase && in_period >= 0.0 && in_period < r.duration) {
      d.extra_delay += rng.lognormal(r.mu, r.sigma);
    }
  }
  for (const ReorderRule& r : reorder_rules_) {
    if (matches(r.level, level) && rng.bernoulli(r.p)) {
      d.extra_delay += rng.exponential(r.delay);
    }
  }
  for (const ProbRule& r : drops_rules_) {
    if (matches(r.level, level) && rng.bernoulli(r.p)) d.drop = true;
  }
  for (const ProbRule& r : dup_rules_) {
    if (matches(r.level, level) && rng.bernoulli(r.p)) d.duplicate = true;
  }
  if (trace::Counter* m = d.drop ? g_drops.get() : nullptr) m->inc();
  if (trace::Counter* m = d.duplicate ? g_duplicates.get() : nullptr) m->inc();
  if (trace::Counter* m = d.extra_delay > 0.0 ? g_delayed.get() : nullptr) {
    m->inc();
    g_extra_delay.get()->observe(d.extra_delay);
  }
  return d;
}

sim::Time FaultInjector::release_time(int rank, sim::Time t) const {
  // Windows may abut or overlap; iterate until no window covers `t`.  The
  // list is tiny (one entry per --fault pause:...), so the scan is cheap.
  bool moved = true;
  sim::Time out = t;
  while (moved) {
    moved = false;
    for (const PauseRule& r : pauses_) {
      if (r.rank == rank && out >= r.begin && out < r.end) {
        out = r.end;
        moved = true;
      }
    }
  }
  if (out != t) {
    if (trace::Counter* m = g_pauses.get()) m->inc();
  }
  return out;
}

}  // namespace hcs::fault
