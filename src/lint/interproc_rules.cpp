#include "lint/interproc_rules.hpp"

#include <algorithm>

#include "lint/rules.hpp"

namespace hcs::lint {
namespace {

bool rule_enabled(const std::set<std::string>& enabled, const std::string& id) {
  return enabled.empty() || enabled.count(id) > 0;
}

std::string join_set(const std::set<std::string>& s) {
  if (s.empty()) return "nothing";
  std::string out;
  for (const std::string& v : s) out += (out.empty() ? "" : ", ") + v;
  return out;
}

// ---------------------------------------------------------------------------
// ip-coll-rank-branch
// ---------------------------------------------------------------------------

void run_coll_rank_branch(const std::vector<FileSummary>& files, const ProjectIndex& index,
                          std::vector<Finding>& out) {
  const RuleInfo* rule = find_rule("ip-coll-rank-branch");
  if (!rule) return;

  // Transitive collective bags: colls*(f) = direct(f) ∪ colls*(callees), to a
  // fixpoint bounded by kMaxCallDepth rounds.  Level-synchronous, so the
  // bound is in call edges whatever the declaration order: each round reads
  // the bags as they stood before it.
  std::map<const FunctionSummary*, std::set<std::string>> bags;
  for (const FileSummary& file : files) {
    for (const FunctionSummary& fn : file.functions) {
      bags[&fn].insert(fn.direct_colls.begin(), fn.direct_colls.end());
    }
  }
  for (std::size_t round = 0; round < kMaxCallDepth; ++round) {
    std::map<const FunctionSummary*, std::set<std::string>> added;
    for (const FileSummary& file : files) {
      for (const FunctionSummary& fn : file.functions) {
        const std::set<std::string>& bag = bags[&fn];
        for (const CallSite& c : fn.calls) {
          const FuncRef* callee = index.resolve(c.name);
          if (!callee) continue;
          for (const std::string& coll : bags[callee->fn]) {
            if (!bag.count(coll)) added[&fn].insert(coll);
          }
        }
      }
    }
    if (added.empty()) break;
    for (const auto& [fn, colls] : added) bags[fn].insert(colls.begin(), colls.end());
  }

  const auto bag_through = [&](const std::vector<std::string>& direct,
                               const std::vector<std::string>& calls) {
    std::set<std::string> bag(direct.begin(), direct.end());
    for (const std::string& name : calls) {
      const FuncRef* callee = index.resolve(name);
      if (callee) bag.insert(bags[callee->fn].begin(), bags[callee->fn].end());
    }
    return bag;
  };

  for (const FileSummary& file : files) {
    if (path_exempt(*rule, file.rel_path)) continue;
    for (const RankBranchSummary& rb : file.rank_branches) {
      // The per-file rule owns direct divergence; this rule only fires when
      // the arms look identical file-locally but helpers hide collectives.
      if (rb.fn < 0 || rb.then_colls != rb.else_colls) continue;
      const std::set<std::string> then_bag = bag_through(rb.then_colls, rb.then_calls);
      const std::set<std::string> else_bag = bag_through(rb.else_colls, rb.else_calls);
      if (then_bag != else_bag) {
        out.push_back(Finding{
            rule->id, rule->severity, file.rel_path, rb.line, rb.col,
            "collective calls diverge across a rank-dependent branch through helper calls: "
            "then-branch transitively performs " +
                join_set(then_bag) + ", else-branch " + join_set(else_bag) +
                " — every rank must reach the same collective sequence"});
        continue;
      }
      if (rb.exit_then == rb.exit_else || !rb.after_colls.empty()) continue;
      std::set<std::string> after_bag;
      for (const std::string& name : rb.after_calls) {
        const FuncRef* callee = index.resolve(name);
        if (callee) after_bag.insert(bags[callee->fn].begin(), bags[callee->fn].end());
      }
      if (!after_bag.empty()) {
        out.push_back(Finding{
            rule->id, rule->severity, file.rel_path, rb.line, rb.col,
            "rank-dependent early exit skips collective(s) " + join_set(after_bag) +
                " reached through helper calls after the branch — hoist the exit below the "
                "collective or make it uniform"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ip-unchecked-sync-result
// ---------------------------------------------------------------------------

void run_unchecked_sync_result(const std::vector<FileSummary>& files, const ProjectIndex& index,
                               std::vector<Finding>& out) {
  const RuleInfo* rule = find_rule("ip-unchecked-sync-result");
  if (!rule) return;
  for (const FileSummary& file : files) {
    if (path_exempt(*rule, file.rel_path)) continue;
    for (const FunctionSummary& fn : file.functions) {
      for (const CallSite& c : fn.calls) {
        if (c.use == ResultUse::kConsumed) continue;
        if (!index.all_return_sync_result(c.name)) continue;
        std::string how;
        switch (c.use) {
          case ResultUse::kDiscarded:
            how = "the returned value is discarded";
            break;
          case ResultUse::kConverted:
            how = "the result is narrowed to the clock (implicit ClockPtr conversion / .clock)";
            break;
          default:
            how = "the result is bound but its .report is never consulted";
            break;
        }
        out.push_back(Finding{
            rule->id, rule->severity, file.rel_path, c.line, c.col,
            "'" + c.name + "' returns SyncResult but " + how +
                " — the SyncReport health (round count, residual error, fault verdict) is "
                "dropped; bind the full result and check .report"});
      }
    }
  }
}

}  // namespace

std::vector<Finding> run_interproc_rules(const std::vector<FileSummary>& files,
                                         const ProjectIndex& index,
                                         const std::set<std::string>& enabled,
                                         const std::function<double()>& now,
                                         std::map<std::string, double>* rule_seconds) {
  const auto timed = [&](const char* id, const std::function<void()>& body) {
    const double t0 = now ? now() : 0.0;
    body();
    if (now && rule_seconds) (*rule_seconds)[id] += now() - t0;
  };
  std::vector<Finding> out;
  if (rule_enabled(enabled, "ip-coll-rank-branch")) {
    timed("ip-coll-rank-branch", [&] { run_coll_rank_branch(files, index, out); });
  }
  if (rule_enabled(enabled, "ip-unchecked-sync-result")) {
    timed("ip-unchecked-sync-result", [&] { run_unchecked_sync_result(files, index, out); });
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace hcs::lint
