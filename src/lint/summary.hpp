// Per-file summaries for whole-program hcs-lint (phase 1 of 2).
//
// A FileSummary is everything the rules need to know about one translation
// unit: every function definition with its call sites and the collectives it
// performs directly, the rank-dependent branches of the whole file, the
// per-file findings (all rules, pre-filter) and the suppression tables.
// build_summary is the one scanner for rank branches; the interprocedural
// rule coll-rank-branch queries its records in phase 2.  Summaries are
// config-independent: rule selection and suppressions are applied later.
#pragma once

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
  kDiscarded,     // bare `co_await f(...);` — value dropped entirely
  kReportUnread,  // only .clock read: `f(...).clock`, or an auto/SyncResult binding
  kConsumed,      // returned, escaped, or .report read — caller's business
};

struct CallSite {
  std::string name;  // base callee name (qualifiers stripped)
  bool method = false;
  int line = 0;
  int col = 0;
  ResultUse use = ResultUse::kConsumed;
};

// One rank-dependent `if`, file scope included: what each arm does directly
// and which project functions it calls.  coll-rank-branch compares the arms'
// transitive collective bags (direct collectives plus each called helper's
// bag) and, for a one-sided early exit, the bag of what follows the branch.
struct RankBranchSummary {
  int line = 0;
  int col = 0;
  bool exit_then = false;
  bool exit_else = false;
  std::vector<std::string> then_colls, else_colls;  // sorted
  std::vector<std::string> then_calls, else_calls;  // sorted, deduped
  // After the branch, up to the end of the innermost function or lambda (the
  // file's end outside any): what a one-sided early exit skips.
  std::vector<std::string> scope_after_colls, scope_after_calls;
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
FileSummary build_summary(const LexedFile& file, const std::string& rel_path);

}  // namespace hcs::lint
