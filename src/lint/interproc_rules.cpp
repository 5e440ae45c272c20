#include "lint/interproc_rules.hpp"

#include <algorithm>

#include "lint/rules.hpp"

namespace hcs::lint {
namespace {

bool path_exempt(const RuleInfo& rule, const std::string& rel_path) {
  return std::any_of(rule.exempt_path_prefixes.begin(), rule.exempt_path_prefixes.end(),
                     [&](const std::string& p) { return rel_path.rfind(p, 0) == 0; });
}

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
// Determinism/shard taint reachability (ip-wall-clock, ip-raw-random,
// ip-shard-shared-state)
// ---------------------------------------------------------------------------

struct TaintRule {
  HazardKind kind;
  const char* ip_id;
  const char* per_file_id;  // whose exemptions/suppressions define "unreported"
  const char* what;         // for messages
};

constexpr TaintRule kTaintRules[] = {
    {HazardKind::kWallClock, "ip-wall-clock", "wall-clock", "a wall-clock time source"},
    {HazardKind::kRawRandom, "ip-raw-random", "raw-random", "a raw-randomness source"},
    {HazardKind::kShardState, "ip-shard-shared-state", "shard-shared-state",
     "engine-owned shard state"},
};

void run_taint_rule(const TaintRule& tr, const std::vector<FileSummary>& files,
                    const ProjectIndex& index, std::vector<Finding>& out) {
  const RuleInfo* ip_rule = find_rule(tr.ip_id);
  const RuleInfo* per_file = find_rule(tr.per_file_id);
  if (!ip_rule || !per_file) return;

  // Sources: hazard sites inside a named function that the per-file rule
  // did NOT report — the file is exempt for it, or the site sits under a
  // suppression comment.  Reported sites already fail the gate on their own;
  // duplicating them across every caller would only add noise.  A plain read
  // of tl_current_shard re-points nothing, so it is no source.  The first
  // source in a function names its chain.
  std::map<const FunctionSummary*, std::string> tainted;  // fn -> chain to the hazard
  for (const FileSummary& file : files) {
    for (const HazardSite& h : file.hazards) {
      if (h.kind != tr.kind || h.fn < 0 || h.read_only) continue;
      const Finding probe{per_file->id, per_file->severity, file.rel_path, h.line, h.col, ""};
      const bool reported =
          !path_exempt(*per_file, file.rel_path) && !is_suppressed(file.suppressions, probe);
      if (reported) continue;
      tainted.emplace(&file.functions[static_cast<std::size_t>(h.fn)],
                      h.detail + " (" + file.rel_path + ":" + std::to_string(h.line) + ")");
    }
  }
  if (tainted.empty()) return;

  // Caller-ward propagation, level-synchronous so kMaxCallDepth is a true
  // bound in call edges regardless of declaration order: each round only
  // consults the taint set as it stood before the round.  Taint crosses
  // exempt files (that is the laundering path); findings below do not land
  // in them.
  for (std::size_t round = 0; round < kMaxCallDepth; ++round) {
    std::map<const FunctionSummary*, std::string> next;
    for (const FileSummary& file : files) {
      for (const FunctionSummary& fn : file.functions) {
        if (tainted.count(&fn)) continue;
        for (const CallSite& c : fn.calls) {
          const FuncRef* callee = index.resolve(c.name);
          if (!callee || !tainted.count(callee->fn)) continue;
          next.emplace(&fn, c.name + " \xe2\x86\x92 " + tainted[callee->fn]);
          break;
        }
      }
    }
    if (next.empty()) break;
    tainted.insert(next.begin(), next.end());
  }

  // One finding per call edge from a non-exempt function into taint.
  for (const FileSummary& file : files) {
    if (path_exempt(*ip_rule, file.rel_path)) continue;
    for (const FunctionSummary& fn : file.functions) {
      for (const CallSite& c : fn.calls) {
        const FuncRef* callee = index.resolve(c.name);
        if (!callee || !tainted.count(callee->fn)) continue;
        out.push_back(Finding{
            ip_rule->id, ip_rule->severity, file.rel_path, c.line, c.col,
            "call chain reaches " + std::string(tr.what) + ": " + c.name + " \xe2\x86\x92 " +
                tainted[callee->fn] +
                " — the per-file " + per_file->id +
                " rule cannot see this from the caller; break the chain or justify it with a "
                "suppression at this call site"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ip-coll-rank-branch
// ---------------------------------------------------------------------------

void run_coll_rank_branch(const std::vector<FileSummary>& files, const ProjectIndex& index,
                          std::vector<Finding>& out) {
  const RuleInfo* rule = find_rule("ip-coll-rank-branch");
  if (!rule) return;

  // Transitive collective bags: colls*(f) = direct(f) ∪ colls*(callees), to a
  // fixpoint bounded by kMaxCallDepth rounds.
  std::map<const FunctionSummary*, std::set<std::string>> bags;
  for (const FileSummary& file : files) {
    for (const FunctionSummary& fn : file.functions) {
      bags[&fn].insert(fn.direct_colls.begin(), fn.direct_colls.end());
    }
  }
  for (std::size_t round = 0; round < kMaxCallDepth; ++round) {
    bool changed = false;
    for (const FileSummary& file : files) {
      for (const FunctionSummary& fn : file.functions) {
        std::set<std::string>& bag = bags[&fn];
        for (const CallSite& c : fn.calls) {
          const FuncRef* callee = index.resolve(c.name);
          if (!callee) continue;
          for (const std::string& coll : bags[callee->fn]) {
            if (bag.insert(coll).second) changed = true;
          }
        }
      }
    }
    if (!changed) break;
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
  for (const TaintRule& tr : kTaintRules) {
    if (!rule_enabled(enabled, tr.ip_id)) continue;
    timed(tr.ip_id, [&] { run_taint_rule(tr, files, index, out); });
  }
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
