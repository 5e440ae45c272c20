// Per-file summaries for whole-program hcs-lint (phase 1 of 2).
//
// A FileSummary is everything the rules need to know about one translation
// unit: every function definition with its call sites and the collectives it
// performs directly, the rank-dependent branches of the whole file, the
// per-file findings (all rules, pre-filter) and the suppression tables.
// build_summary is the one scanner for rank branches: the per-file rule
// coll-rank-branch queries its records, and so do the interprocedural rules
// of phase 2.  Summaries are config-independent — rule selection and
// baselines are applied later.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/finding.hpp"
#include "lint/lexer.hpp"

namespace hcs::lint {

// How a call site treats the value the callee returns.  Only meaningful once
// the project phase knows the callee returns SyncResult; classified for every
// call at extraction time because the summary cannot see other files.
enum class ResultUse {
  kDiscarded,       // bare `co_await f(...);` — value dropped entirely
  kConverted,       // bound via the implicit ClockPtr conversion (or .clock)
  kBoundUnchecked,  // bound to auto/SyncResult but .report never consulted
  kConsumed,        // returned, escaped, or .report read — caller's business
};

struct CallSite {
  std::string name;  // base callee name (qualifiers stripped)
  bool method = false;
  int line = 0;
  int col = 0;
  ResultUse use = ResultUse::kConsumed;
};

// One rank-dependent `if`, file scope included: what each arm does directly.
// `fn` tags it with its innermost enclosing named function (an index into
// FileSummary::functions), or -1 outside any; the interprocedural rule uses
// only tagged records.  The per-file coll-rank-branch rule fires when the
// *direct* collectives diverge; the interprocedural rule fires when they
// match but the transitive bags (through then_calls/else_calls) do not.
struct RankBranchSummary {
  int line = 0;
  int col = 0;
  int fn = -1;
  bool exit_then = false;
  bool exit_else = false;
  std::vector<std::string> then_colls, else_colls;  // sorted
  std::vector<std::string> then_calls, else_calls;  // sorted, deduped
  // After the branch, up to the end of the innermost function or lambda (the
  // file's end outside any): what a one-sided early exit skips file-locally.
  std::vector<std::string> scope_after_colls;
  // After the branch, up to the named function's "}" (empty when fn < 0).
  std::vector<std::string> after_colls, after_calls;
};

struct FunctionSummary {
  std::string name;       // base name
  std::string qualifier;  // innermost Class:: / ns:: qualifier, if written
  int line = 0;
  bool returns_sync_result = false;
  std::vector<std::string> direct_colls;  // sorted, deduped
  std::vector<CallSite> calls;            // non-collective project-call candidates
};

struct SuppressionSummary {
  std::map<int, std::set<std::string>> by_line;  // line -> rule ids allowed there
  std::set<std::string> whole_file;
};

struct FileSummary {
  std::string rel_path;
  std::vector<FunctionSummary> functions;
  std::vector<RankBranchSummary> rank_branches;  // token order
  // Findings from every per-file rule plus bad-suppression diagnostics,
  // before rule selection and suppression filtering (both are config).
  std::vector<Finding> local_findings;
  SuppressionSummary suppressions;
};

// Parses the hcs-lint suppression comments out of a lexed file.  Unknown rule
// names and malformed forms are reported into `bad_annotations` when
// provided.
SuppressionSummary collect_suppressions(const LexedFile& file, const std::string& rel_path,
                                        std::vector<Finding>* bad_annotations);

bool is_suppressed(const SuppressionSummary& sup, const Finding& f);

// Phase 1: extracts the full summary (functions, branches, suppressions)
// from one lexed file and runs the per-file rules over it.
// `now`/`rule_seconds` (both optional) accumulate per-rule runtimes for
// --stats; the library takes no timings of its own.
FileSummary build_summary(const LexedFile& file, const std::string& rel_path,
                          const std::function<double()>& now = {},
                          std::map<std::string, double>* rule_seconds = nullptr);

}  // namespace hcs::lint
