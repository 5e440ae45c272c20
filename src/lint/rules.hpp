// The hcs-lint rule catalogue and rule engine.
//
// Rules are table-driven: rule_table() is the single source of truth for rule
// ids, default severities, categories and per-rule path exemptions.  The
// per-file rules wall-clock, raw-random, shard-shared-state and
// coll-rank-branch are queries over the hazard and rank-branch records of a
// FileSummary; the others are token-stream checks over the LexedFile (see
// docs/static-analysis.md for the catalogue with rationale and examples).
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/finding.hpp"
#include "lint/lexer.hpp"

namespace hcs::lint {

struct FileSummary;

struct RuleInfo {
  std::string id;
  Severity severity = Severity::kError;
  std::string category;  // collective-matching | determinism | coroutine-lifetime | performance
  std::string summary;
  // Repo-relative path prefixes (forward slashes) where the rule is off by
  // design, e.g. the runner's wall-clock timing shim.
  std::vector<std::string> exempt_path_prefixes = {};
  // When non-empty, the rule only runs on paths under these prefixes (plus
  // the lint fixtures dir, so the rule's own fixture pair exercises it).
  std::vector<std::string> limit_path_prefixes = {};
  // Interprocedural rules run in the whole-program phase (interproc_rules.cpp)
  // over merged per-file summaries instead of in run_rules; their fixtures are
  // multi-file sets under tests/lint/fixtures/ip/<id>/{bad,good}/.
  bool interprocedural = false;
};

const std::vector<RuleInfo>& rule_table();
const RuleInfo* find_rule(const std::string& id);

// Runs every per-file rule whose id is in `enabled` (empty set = all rules)
// over `file` and its summary's records, and appends raw findings.
// `summary.rel_path` is the repo-relative path used for exemption matching
// and reporting; suppression comments and baselines are applied by the
// analyzer, not here.  Interprocedural rules are skipped (see
// interproc_rules.hpp).  `now`/`rule_seconds` (optional) accumulate per-rule
// runtimes for --stats.
void run_rules(const LexedFile& file, const FileSummary& summary,
               const std::set<std::string>& enabled, std::vector<Finding>& out,
               const std::function<double()>& now = {},
               std::map<std::string, double>* rule_seconds = nullptr);

}  // namespace hcs::lint
