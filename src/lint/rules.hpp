// The hcs-lint rule catalogue and rule engine.
//
// Rules are table-driven: rule_table() is the single source of truth for rule
// ids, default severities, categories and per-rule path exemptions.  The
// four per-file rules are token-stream checks over the LexedFile; the two
// interprocedural rules, coll-rank-branch among them, run in phase 2
// (interproc_rules.hpp).  Host clocks, raw randomness and discarded Tasks are
// not rules: the compiler rejects them (docs/static-analysis.md has the
// catalogue with rationale and examples, and "What the compiler enforces").
#pragma once

#include <set>
#include <string>
#include <vector>

#include "lint/finding.hpp"
#include "lint/lexer.hpp"

namespace hcs::lint {

struct RuleInfo {
  std::string id;
  Severity severity = Severity::kError;
  std::string category;  // collective-matching | determinism | coroutine-lifetime
  std::string summary;
  // Repo-relative path prefixes (forward slashes) where the rule is off by
  // design, e.g. tests/ for ip-unchecked-sync-result.
  std::vector<std::string> exempt_path_prefixes = {};
  // Interprocedural rules run in the whole-program phase (interproc_rules.cpp)
  // over merged per-file summaries instead of in run_rules; their fixtures are
  // multi-file sets under tests/lint/fixtures/ip/<id>/{bad,good}/.
  bool interprocedural = false;
};

const std::vector<RuleInfo>& rule_table();
const RuleInfo* find_rule(const std::string& id);

// True when `rel_path` lies under one of the rule's exempt prefixes.
bool path_exempt(const RuleInfo& rule, const std::string& rel_path);

// Runs every per-file rule whose id is in `enabled` (empty set = all rules)
// over `file` and appends raw findings.  `rel_path` is the repo-relative path
// used for exemption matching and reporting; suppression comments are
// applied by the analyzer, not here.  Interprocedural rules are skipped (see
// interproc_rules.hpp).
void run_rules(const LexedFile& file, const std::string& rel_path,
               const std::set<std::string>& enabled, std::vector<Finding>& out);

}  // namespace hcs::lint
