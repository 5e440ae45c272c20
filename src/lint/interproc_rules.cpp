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
// coll-rank-branch
// ---------------------------------------------------------------------------

void run_coll_rank_branch(const std::vector<FileSummary>& files, const ProjectIndex& index,
                          std::vector<Finding>& out) {
  const RuleInfo* rule = find_rule("coll-rank-branch");
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
      const std::set<std::string> then_bag = bag_through(rb.then_colls, rb.then_calls);
      const std::set<std::string> else_bag = bag_through(rb.else_colls, rb.else_calls);
      if (then_bag != else_bag) {
        out.push_back(Finding{
            rule->id, rule->severity, file.rel_path, rb.line, rb.col,
            "collective calls diverge across a rank-dependent branch: then-branch performs " +
                join_set(then_bag) + ", else-branch " + join_set(else_bag) +
                " (directly or through helper calls) — every rank must reach the same "
                "collective sequence"});
        continue;
      }
      // Matched arms (usually both empty): an early exit on one side still
      // desynchronizes every collective that follows in the function or
      // lambda it leaves.
      if (rb.exit_then == rb.exit_else) continue;
      const std::set<std::string> after_bag =
          bag_through(rb.scope_after_colls, rb.scope_after_calls);
      if (!after_bag.empty()) {
        out.push_back(Finding{
            rule->id, rule->severity, file.rel_path, rb.line, rb.col,
            "rank-dependent early exit skips later collective(s) " + join_set(after_bag) +
                " (directly or through helper calls) for some ranks — hoist the exit below "
                "the collective or make it uniform"});
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
        const std::string how = c.use == ResultUse::kDiscarded
                                    ? "the returned value is discarded"
                                    : "its .report is never read";
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
                                         const std::set<std::string>& enabled) {
  std::vector<Finding> out;
  if (rule_enabled(enabled, "coll-rank-branch")) run_coll_rank_branch(files, index, out);
  if (rule_enabled(enabled, "ip-unchecked-sync-result")) {
    run_unchecked_sync_result(files, index, out);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace hcs::lint
