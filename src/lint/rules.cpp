#include "lint/rules.hpp"

#include <algorithm>
#include <cstddef>
#include <map>

#include "lint/summary.hpp"
#include "lint/token_scan.hpp"

namespace hcs::lint {
namespace {

using namespace scan;  // NOLINT(google-build-using-namespace) — rule bodies read as token algebra

// ---------------------------------------------------------------------------
// Shared per-file context
// ---------------------------------------------------------------------------

struct FileCtx {
  const Toks& t;
  const FileSummary& summary;  // hazard and rank-branch records

  void add(std::vector<Finding>& out, const RuleInfo& rule, int line, int col,
           std::string message) const {
    out.push_back(Finding{rule.id, rule.severity, summary.rel_path, line, col, std::move(message)});
  }
  void add(std::vector<Finding>& out, const RuleInfo& rule, const Token& at,
           std::string message) const {
    add(out, rule, at.line, at.col, std::move(message));
  }
};

// ---------------------------------------------------------------------------
// Rule: coll-rank-branch
// ---------------------------------------------------------------------------

void rule_coll_rank_branch(const FileCtx& ctx, const RuleInfo& rule, std::vector<Finding>& out) {
  for (const RankBranchSummary& rb : ctx.summary.rank_branches) {
    if (rb.then_colls != rb.else_colls) {
      ctx.add(out, rule, rb.line, rb.col,
              "collective calls diverge across a rank-dependent branch: then-branch calls " +
                  join(rb.then_colls) + ", else-branch calls " + join(rb.else_colls) +
                  " — every rank must reach the same collective sequence");
      continue;
    }
    // Matched branches (usually both empty): an early exit on one side still
    // desynchronizes every collective that follows in this function.
    if (rb.exit_then == rb.exit_else || rb.scope_after_colls.empty()) continue;
    ctx.add(out, rule, rb.line, rb.col,
            "rank-dependent early exit skips later collective(s) " + join(rb.scope_after_colls) +
                " for some ranks — hoist the exit below the collective or make it uniform");
  }
}

// ---------------------------------------------------------------------------
// Rule: ft-plain-recv
// ---------------------------------------------------------------------------

void rule_ft_plain_recv(const FileCtx& ctx, const RuleInfo& rule, std::vector<Finding>& out) {
  const Toks& t = ctx.t;
  bool uses_ft = false;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (is_ident(t[i]) && (t[i].text == "recv_ft" || t[i].text == "peer_status") &&
        call_kind(t, i) == CallKind::kMethod) {
      uses_ft = true;
      break;
    }
  }
  if (!uses_ft) return;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (is_ident(t[i], "recv") && call_kind(t, i) == CallKind::kMethod) {
      ctx.add(out, rule, t[i],
              "plain recv() in a file using the failure-detector path (recv_ft/peer_status): "
              "recv blocks forever if the peer has crashed — use recv_ft");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: wall-clock
// ---------------------------------------------------------------------------

void rule_wall_clock(const FileCtx& ctx, const RuleInfo& rule, std::vector<Finding>& out) {
  for (const HazardSite& h : ctx.summary.hazards) {
    if (h.kind != HazardKind::kWallClock) continue;
    ctx.add(out, rule, h.line, h.col,
            "wall-clock time source '" + h.detail +
                "' breaks byte-identical reproducibility — simulated code must use "
                "sim::Simulation time; host-side timing belongs in src/runner/");
  }
}

// ---------------------------------------------------------------------------
// Rule: raw-random
// ---------------------------------------------------------------------------

void rule_raw_random(const FileCtx& ctx, const RuleInfo& rule, std::vector<Finding>& out) {
  for (const HazardSite& h : ctx.summary.hazards) {
    if (h.kind != HazardKind::kRawRandom) continue;
    std::string message;
    if (h.detail == "random_device") {
      message =
          "std::random_device is nondeterministic by construction — derive streams from the "
          "run seed (sim::Rng / World RNG streams)";
    } else if (h.var.empty()) {  // rand() / srand()
      message = h.detail +
                "() uses hidden global state and is not seedable per trial — use sim::Rng";
    } else {
      message = "default-constructed random engine '" + h.var +
                "' has an implementation-defined seed — seed it explicitly from the run seed";
    }
    ctx.add(out, rule, h.line, h.col, std::move(message));
  }
}

// ---------------------------------------------------------------------------
// Rule: unordered-iter
// ---------------------------------------------------------------------------

void rule_unordered_iter(const FileCtx& ctx, const RuleInfo& rule, std::vector<Finding>& out) {
  const Toks& t = ctx.t;
  std::set<std::string> unordered_vars;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_ident(t[i]) || t[i].text.rfind("unordered_", 0) != 0) continue;
    std::size_t k = i + 1;
    if (is(t[k], "<")) {  // skip the template argument list
      int depth = 0;
      for (; k < t.size(); ++k) {
        if (is(t[k], "<")) ++depth;
        if (is(t[k], ">") && --depth == 0) {
          ++k;
          break;
        }
        if (is(t[k], ">>") && (depth -= 2) <= 0) {
          ++k;
          break;
        }
      }
    }
    while (k < t.size() && (is(t[k], "&") || is(t[k], "&&") || is(t[k], "*"))) ++k;
    if (k < t.size() && is_ident(t[k]) && t[k].text != "const") {
      unordered_vars.insert(t[k].text);
    }
  }
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_ident(t[i], "for") || !is(t[i + 1], "(")) continue;
    const std::size_t close = match_forward(t, i + 1);
    if (close >= t.size()) continue;
    // Range-for: a ":" at paren depth 1 with no top-level ";".
    std::size_t colon = 0;
    int depth = 0;
    bool classic = false;
    for (std::size_t k = i + 1; k < close; ++k) {
      if (opens(t[k])) ++depth;
      if (closes(t[k])) --depth;
      if (depth == 1 && is(t[k], ";")) classic = true;
      if (depth == 1 && is(t[k], ":") && colon == 0) colon = k;
    }
    if (classic || colon == 0) continue;
    for (std::size_t k = colon + 1; k < close; ++k) {
      if (is_ident(t[k]) &&
          (unordered_vars.count(t[k].text) || t[k].text.rfind("unordered_", 0) == 0)) {
        ctx.add(out, rule, t[i],
                "iteration over std::unordered_* ('" + t[k].text +
                    "') has unspecified order — anything it feeds (exporters, logs, metrics) "
                    "loses byte-identical output; use std::map/std::set or sort first");
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: co-await-subexpr
// ---------------------------------------------------------------------------

// Scans the operand containing the co_await at `i` for ?:, && or || at the
// co_await's own nesting level.  GCC 12 miscompiles such expressions (frame
// double-free; see the PR-4 Comm::split fix), and evaluation-order subtleties
// make them hazardous even on correct compilers.
bool subexpr_hazard(const Toks& t, std::size_t i) {
  int depth = 0;
  for (std::size_t k = i; k-- > 0;) {  // backward over the operand
    const Token& tok = t[k];
    if (closes(tok)) {
      ++depth;
      continue;
    }
    if (opens(tok)) {
      if (depth == 0) break;
      --depth;
      continue;
    }
    if (depth != 0) continue;
    if (is(tok, ";") || is(tok, "{") || is(tok, "}") || is(tok, ",") || is_assign_op(tok) ||
        is_exit_kw(tok) || is_ident(tok, "co_yield") || is_ident(tok, "co_await")) {
      break;
    }
    if (is(tok, "?") || is(tok, "&&") || is(tok, "||")) return true;
  }
  depth = 0;
  for (std::size_t k = i + 1; k < t.size(); ++k) {  // forward over the operand
    const Token& tok = t[k];
    if (opens(tok)) {
      ++depth;
      continue;
    }
    if (closes(tok)) {
      if (depth == 0) break;
      --depth;
      continue;
    }
    if (depth != 0) continue;
    if (is(tok, ";") || is(tok, ",") || is(tok, "{") || is(tok, "}")) break;
    if (is(tok, "?") || is(tok, "&&") || is(tok, "||")) return true;
  }
  return false;
}

void rule_co_await_subexpr(const FileCtx& ctx, const RuleInfo& rule, std::vector<Finding>& out) {
  const Toks& t = ctx.t;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (is_ident(t[i], "co_await") && subexpr_hazard(t, i)) {
      ctx.add(out, rule, t[i],
              "co_await inside a ?:/&&/|| subexpression — GCC 12 miscompiles these (coroutine "
              "frame double-free, cf. the Comm::split fix); hoist it into its own statement");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: coro-lambda-capture
// ---------------------------------------------------------------------------

void rule_coro_lambda_capture(const FileCtx& ctx, const RuleInfo& rule,
                              std::vector<Finding>& out) {
  const Toks& t = ctx.t;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!lambda_start(t, i)) continue;
    const std::size_t cap_close = match_forward(t, i);
    if (cap_close >= t.size()) continue;
    bool any_capture = false, ref_capture = false;
    for (std::size_t k = i + 1; k < cap_close; ++k) {
      any_capture = true;
      if (is(t[k], "&")) ref_capture = true;
    }
    // Find the body "{": skip template params, parameter list and specifiers.
    std::size_t k = cap_close + 1;
    if (k < t.size() && is(t[k], "<")) {
      int depth = 0;
      for (; k < t.size(); ++k) {
        if (is(t[k], "<")) ++depth;
        if (is(t[k], ">") && --depth == 0) {
          ++k;
          break;
        }
      }
    }
    if (k < t.size() && is(t[k], "(")) k = match_forward(t, k) + 1;
    while (k < t.size() && !is(t[k], "{") && !is(t[k], ";") && !is(t[k], ")")) ++k;
    if (k >= t.size() || !is(t[k], "{")) continue;
    const std::size_t body_open = k;
    const std::size_t body_close = match_forward(t, body_open);
    if (body_close >= t.size()) continue;
    bool is_coro = false;
    for (std::size_t b = body_open + 1; b < body_close; ++b) {
      if (is_ident(t[b], "co_await") || is_ident(t[b], "co_return") ||
          is_ident(t[b], "co_yield")) {
        is_coro = true;
        break;
      }
    }
    if (!is_coro) continue;
    const bool invoked_now = body_close + 1 < t.size() && is(t[body_close + 1], "(");
    if (invoked_now && any_capture) {
      ctx.add(out, rule, t[i],
              "immediately-invoked lambda coroutine with captures: the temporary lambda dies "
              "at the end of this statement while the coroutine frame still points into it — "
              "pass state as parameters or name the lambda with matching lifetime");
      continue;
    }
    const bool escapes =
        i > 0 && (is_ident(t[i - 1], "return") || is_ident(t[i - 1], "co_return"));
    if (escapes && ref_capture) {
      ctx.add(out, rule, t[i],
              "returned lambda coroutine captures by reference: the captured locals die with "
              "the enclosing scope before the coroutine runs — capture by value");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: task-discard
// ---------------------------------------------------------------------------

const std::set<std::string>& task_returning() {
  static const std::set<std::string> k = {"send",
                                          "recv",
                                          "recv_ft",
                                          "wait",
                                          "pingpong_burst",
                                          "split",
                                          "split_shared_node",
                                          "split_shared_socket",
                                          "barrier",
                                          "bcast",
                                          "reduce",
                                          "allreduce",
                                          "gather",
                                          "scatter",
                                          "allgather",
                                          "alltoall",
                                          "reduce_scatter",
                                          "scan",
                                          "sync_clocks",
                                          "measure_offset",
                                          "agree_any",
                                          "surviving_quorum",
                                          "p2p_recv",
                                          "p2p_send",
                                          "block_on_recv",
                                          "await_recv_until",
                                          "delay"};
  return k;
}

void rule_task_discard(const FileCtx& ctx, const RuleInfo& rule, std::vector<Finding>& out) {
  const Toks& t = ctx.t;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t[i]) || !task_returning().count(t[i].text)) continue;
    if (call_kind(t, i) == CallKind::kNone) continue;
    const std::size_t close = match_forward(t, i + 1);
    if (close + 1 >= t.size() || !is(t[close + 1], ";")) continue;
    // Statement scan: bail if the value is consumed (co_await, assignment,
    // return, spawn) or if the call sits inside a larger expression.
    bool consumed = false;
    int depth = 0;
    for (std::size_t k = i; k-- > 0;) {
      const Token& tok = t[k];
      if (closes(tok)) {
        ++depth;
        continue;
      }
      if (opens(tok)) {
        if (depth == 0) {
          // "{" starts the enclosing block (statement position); "(" or "["
          // means the call is an argument of a larger expression.
          consumed = !is(tok, "{");
          break;
        }
        --depth;
        continue;
      }
      if (depth != 0) continue;
      if (is(tok, ";") || is(tok, "}") || is(tok, ":")) break;
      if (is_ident(tok, "co_await") || is_assign_op(tok) || is_exit_kw(tok) ||
          is_ident(tok, "co_yield") || is_ident(tok, "spawn") || is_ident(tok, "for") ||
          is_ident(tok, "while") || is_ident(tok, "if")) {
        consumed = true;
        break;
      }
    }
    if (consumed) continue;
    ctx.add(out, rule, t[i],
            "Task-returning call '" + t[i].text +
                "' is never awaited or stored — the operation is destroyed before it runs; "
                "co_await it (or hand it to Simulation::spawn)");
  }
}

// ---------------------------------------------------------------------------
// Rule: shard-shared-state
// ---------------------------------------------------------------------------

// The sharded World engine (docs/parallel-simulation.md) runs one event loop
// per shard, each on its own worker thread.  Rank code and scheduler
// callbacks must therefore (a) read time and RNG streams through their own
// shard's accessors — Comm::sim() / RankCtx::sim() — never through
// World::sim(), which is shard 0's Simulation: the wrong clock for ranks on
// other shards and a data race with shard 0's worker; and (b) never re-point
// the engine-owned thread-local shard context.  Cross-shard effects go
// through the mailbox/outbox API (ordinary sends, drained at window
// boundaries) instead of touching another shard's state directly.
void rule_shard_shared_state(const FileCtx& ctx, const RuleInfo& rule,
                             std::vector<Finding>& out) {
  for (const HazardSite& h : ctx.summary.hazards) {
    if (h.kind != HazardKind::kShardState) continue;
    std::string message;
    if (h.detail == "set_current_shard") {
      message =
          "the shard context is owned by the engine's window scheduler — re-pointing it from "
          "rank/callback code lets writes bypass the cross-shard mailbox API; send a message "
          "instead (it lands in the destination shard at the next window boundary)";
    } else if (h.detail == "tl_current_shard") {
      message =
          "direct access to the thread-local shard slot bypasses the scheduler — read it via "
          "sim::current_shard() and never write it outside the engine";
    } else {
      // world().sim() / world_->sim(): shard 0's event loop.  Rank code on any
      // other shard reading time or drawing randomness through it observes
      // the wrong clock and races with shard 0's worker thread.
      message =
          "World::sim() is shard 0's event loop — the wrong clock (and a data race) for ranks "
          "on other shards; read time through Comm::sim() or RankCtx::sim(), which resolve "
          "the rank's owning shard";
    }
    ctx.add(out, rule, h.line, h.col, std::move(message));
  }
}

// ---------------------------------------------------------------------------
// Rule: soa-point-state
// ---------------------------------------------------------------------------

// Point-struct discovery: struct definitions whose top-level members include
// at least two floating-point fields.  That shape is per-point measurement
// state (timestamp, offset, RTT, ...), and the passes over it — median scans,
// outlier compaction, regression fits — touch one field at a time, so storing
// it array-of-structs pays a wide stride on every pass.
std::set<std::string> point_structs(const Toks& t) {
  std::set<std::string> names;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!is_ident(t[i], "struct") || !is_ident(t[i + 1]) || !is(t[i + 2], "{")) continue;
    const std::size_t close = match_forward(t, i + 2);
    int float_members = 0;
    int depth = 0;
    for (std::size_t k = i + 3; k < close && k + 2 < t.size(); ++k) {
      if (opens(t[k])) {
        ++depth;
        continue;
      }
      if (closes(t[k])) {
        --depth;
        continue;
      }
      // A member variable, not a member function returning double.
      if (depth == 0 && (is_ident(t[k], "double") || is_ident(t[k], "float")) &&
          is_ident(t[k + 1]) && !is(t[k + 2], "(")) {
        ++float_members;
      }
    }
    if (float_members >= 2) names.insert(t[i + 1].text);
  }
  return names;
}

void rule_soa_point_state(const FileCtx& ctx, const RuleInfo& rule, std::vector<Finding>& out) {
  const Toks& t = ctx.t;
  // Per-point structs defined in clocksync headers: a vector of these is the
  // exact AoS shape the SoA containers replaced, whether or not the
  // definition is visible in this translation unit.
  static const std::set<std::string> kKnownPointStructs = {"ClockOffset"};
  const std::set<std::string> local = point_structs(t);
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_ident(t[i], "vector") || !is(t[i + 1], "<")) continue;
    // Walk the (possibly qualified) element type.
    std::size_t k = i + 2;
    std::string elem;
    while (k < t.size() && (is_ident(t[k]) || is(t[k], "::"))) {
      if (is_ident(t[k])) elem = t[k].text;
      ++k;
    }
    if (k >= t.size()) continue;
    if (elem == "pair" && is(t[k], "<")) {
      // vector<pair<double, double>>: the two-field point record in disguise.
      int depth = 1;
      int floats = 0;
      for (std::size_t p = k + 1; p < t.size() && depth > 0; ++p) {
        if (is(t[p], "<")) {
          ++depth;
        } else if (is(t[p], ">")) {
          --depth;
        } else if (is(t[p], ">>")) {
          depth -= 2;
        } else if (is_ident(t[p], "double") || is_ident(t[p], "float")) {
          ++floats;
        }
      }
      if (floats < 2) continue;
    } else if (!local.count(elem) && !kKnownPointStructs.count(elem)) {
      continue;
    }
    ctx.add(out, rule, t[i],
            "per-point state stored array-of-structs ('vector<" + elem +
                ">'): every median/outlier/fit pass reads one field at a time with a wide "
                "stride — use the structure-of-arrays containers in clocksync/soa.hpp "
                "(FitPointsSoA / ObsSoA) so scans stay contiguous at 100k+ ranks");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Rule table + dispatch
// ---------------------------------------------------------------------------

const std::vector<RuleInfo>& rule_table() {
  static const std::vector<RuleInfo> kTable = {
      {"coll-rank-branch", Severity::kError, "collective-matching",
       "simmpi collective calls must match across rank-dependent branches", {}},
      {"ft-plain-recv", Severity::kError, "collective-matching",
       "plain recv() is forbidden in files using the failure-detector path", {}},
      {"wall-clock", Severity::kError, "determinism",
       "no wall-clock time sources outside the runner's timing shim", {"src/runner/"}},
      {"raw-random", Severity::kError, "determinism",
       "no rand()/random_device/unseeded engines — randomness derives from the run seed", {}},
      {"unordered-iter", Severity::kError, "determinism",
       "no iteration over unordered containers (unspecified order)", {}},
      {"co-await-subexpr", Severity::kError, "coroutine-lifetime",
       "no co_await inside ?:/&&/|| subexpressions (GCC 12 miscompile class)", {}},
      {"coro-lambda-capture", Severity::kError, "coroutine-lifetime",
       "lambda coroutines must not outlive their captures", {}},
      {"task-discard", Severity::kError, "coroutine-lifetime",
       "Task-returning calls must be co_awaited, stored or spawned", {}},
      {"shard-shared-state", Severity::kError, "determinism",
       "no cross-shard state access from rank code — use the mailbox API and per-rank "
       "shard accessors",
       {"src/sim/shard_context.hpp", "src/simmpi/world.cpp"},
       {}},
      {"soa-point-state", Severity::kError, "performance",
       "per-point clock-sync state uses the SoA containers (clocksync/soa.hpp), not "
       "vectors of point structs",
       {},
       {"src/clocksync/", "tests/lint/fixtures/"}},
      // Interprocedural rules (docs/static-analysis.md, "Whole-program
      // analysis"): run by the project phase over merged per-file summaries,
      // not here — run_interproc_rules in interproc_rules.cpp dispatches
      // them.  Listed in the shared table so ids, severities, exemptions,
      // suppressions and fixtures are handled uniformly.
      {"ip-coll-rank-branch", Severity::kError, "collective-matching",
       "collectives reached through helper calls must match across rank-dependent branches",
       {},
       {},
       /*interprocedural=*/true},
      {"ip-wall-clock", Severity::kError, "determinism",
       "no call chain from sim-visible code into an exempted/suppressed wall-clock read",
       {"src/runner/"},
       {},
       /*interprocedural=*/true},
      {"ip-raw-random", Severity::kError, "determinism",
       "no call chain from sim-visible code into an exempted/suppressed raw-randomness source",
       {},
       {},
       /*interprocedural=*/true},
      {"ip-shard-shared-state", Severity::kError, "determinism",
       "no call chain from rank code into helpers that touch another shard's state",
       {"src/sim/shard_context.hpp", "src/simmpi/world.cpp"},
       {},
       /*interprocedural=*/true},
      {"ip-unchecked-sync-result", Severity::kError, "collective-matching",
       "callers of SyncResult-returning functions must consult the SyncReport health",
       {"tests/"},
       {},
       /*interprocedural=*/true},
  };
  return kTable;
}

const RuleInfo* find_rule(const std::string& id) {
  for (const auto& r : rule_table()) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

void run_rules(const LexedFile& file, const FileSummary& summary,
               const std::set<std::string>& enabled, std::vector<Finding>& out,
               const std::function<double()>& now, std::map<std::string, double>* rule_seconds) {
  const FileCtx ctx{file.tokens, summary};
  const std::string& rel_path = summary.rel_path;
  for (const auto& rule : rule_table()) {
    if (rule.interprocedural) continue;  // phase 2: run_interproc_rules
    if (!enabled.empty() && !enabled.count(rule.id)) continue;
    const bool exempt =
        std::any_of(rule.exempt_path_prefixes.begin(), rule.exempt_path_prefixes.end(),
                    [&](const std::string& p) { return rel_path.rfind(p, 0) == 0; });
    if (exempt) continue;
    if (!rule.limit_path_prefixes.empty()) {
      const bool within =
          std::any_of(rule.limit_path_prefixes.begin(), rule.limit_path_prefixes.end(),
                      [&](const std::string& p) { return rel_path.rfind(p, 0) == 0; });
      if (!within) continue;
    }
    const double t0 = now ? now() : 0.0;
    if (rule.id == "coll-rank-branch") rule_coll_rank_branch(ctx, rule, out);
    if (rule.id == "ft-plain-recv") rule_ft_plain_recv(ctx, rule, out);
    if (rule.id == "wall-clock") rule_wall_clock(ctx, rule, out);
    if (rule.id == "raw-random") rule_raw_random(ctx, rule, out);
    if (rule.id == "unordered-iter") rule_unordered_iter(ctx, rule, out);
    if (rule.id == "co-await-subexpr") rule_co_await_subexpr(ctx, rule, out);
    if (rule.id == "coro-lambda-capture") rule_coro_lambda_capture(ctx, rule, out);
    if (rule.id == "task-discard") rule_task_discard(ctx, rule, out);
    if (rule.id == "shard-shared-state") rule_shard_shared_state(ctx, rule, out);
    if (rule.id == "soa-point-state") rule_soa_point_state(ctx, rule, out);
    if (now && rule_seconds) (*rule_seconds)[rule.id] += now() - t0;
  }
}

}  // namespace hcs::lint
