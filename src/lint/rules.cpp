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
  const FileSummary& summary;  // rank-branch records

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
      {"unordered-iter", Severity::kError, "determinism",
       "no iteration over unordered containers (unspecified order)", {}},
      {"co-await-subexpr", Severity::kError, "coroutine-lifetime",
       "no co_await inside ?:/&&/|| subexpressions (GCC 12 miscompile class)", {}},
      {"coro-lambda-capture", Severity::kError, "coroutine-lifetime",
       "lambda coroutines must not outlive their captures", {}},
      // Interprocedural rules (docs/static-analysis.md, "Whole-program
      // analysis"): run by the project phase over merged per-file summaries,
      // not here — run_interproc_rules in interproc_rules.cpp dispatches
      // them.  Listed in the shared table so ids, severities, exemptions,
      // suppressions and fixtures are handled uniformly.
      {"ip-coll-rank-branch", Severity::kError, "collective-matching",
       "collectives reached through helper calls must match across rank-dependent branches",
       {},
       /*interprocedural=*/true},
      {"ip-unchecked-sync-result", Severity::kError, "collective-matching",
       "callers of SyncResult-returning functions must consult the SyncReport health",
       {"tests/"},
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

bool path_exempt(const RuleInfo& rule, const std::string& rel_path) {
  return std::any_of(rule.exempt_path_prefixes.begin(), rule.exempt_path_prefixes.end(),
                     [&](const std::string& p) { return rel_path.rfind(p, 0) == 0; });
}

void run_rules(const LexedFile& file, const FileSummary& summary,
               const std::set<std::string>& enabled, std::vector<Finding>& out,
               const std::function<double()>& now, std::map<std::string, double>* rule_seconds) {
  const FileCtx ctx{file.tokens, summary};
  for (const auto& rule : rule_table()) {
    if (rule.interprocedural) continue;  // phase 2: run_interproc_rules
    if (!enabled.empty() && !enabled.count(rule.id)) continue;
    if (path_exempt(rule, summary.rel_path)) continue;
    const double t0 = now ? now() : 0.0;
    if (rule.id == "coll-rank-branch") rule_coll_rank_branch(ctx, rule, out);
    if (rule.id == "ft-plain-recv") rule_ft_plain_recv(ctx, rule, out);
    if (rule.id == "unordered-iter") rule_unordered_iter(ctx, rule, out);
    if (rule.id == "co-await-subexpr") rule_co_await_subexpr(ctx, rule, out);
    if (rule.id == "coro-lambda-capture") rule_coro_lambda_capture(ctx, rule, out);
    if (now && rule_seconds) (*rule_seconds)[rule.id] += now() - t0;
  }
}

}  // namespace hcs::lint
