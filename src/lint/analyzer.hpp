// hcs-lint driver: file discovery, the two-phase whole-program pipeline,
// suppression and baseline filtering.
//
// Pipeline: every file is lexed and reduced to a FileSummary, and the
// per-file rules run over it (phase 1, see summary.hpp).  The summaries are
// then merged into a ProjectIndex and the interprocedural rules run over the
// call graph (phase 2, see interproc_rules.hpp).  Rule selection, suppression
// comments and baselines are applied at assembly time.
//
// Suppression comment forms, each naming one or more rule ids (the examples
// use real ids so this header lints clean against its own parser):
//   hcs-lint: allow(unordered-iter, coll-rank-branch) — suppresses on the comment's line
//   hcs-lint: allow-next-line(co-await-subexpr)        — suppresses on the next line
//   hcs-lint: allow-file(coro-lambda-capture)          — suppresses in the whole file
// A justification after the closing paren is encouraged and ignored by the
// tool.  Unknown rule names in a suppression are themselves reported (a typo
// would otherwise silently disable nothing).
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint/baseline.hpp"
#include "lint/finding.hpp"

namespace hcs::lint {

struct AnalyzerOptions {
  std::set<std::string> enabled_rules;  // empty = all
  std::string root;                     // paths are reported relative to this
  // Host-time source (seconds) for stats.  Left empty, no timings are taken —
  // the library itself cannot read a host clock (util/poison.hpp);
  // tools/hcs_lint injects util::host_seconds.
  std::function<double()> now;
};

struct RuleStats {
  int findings = 0;
  double seconds = 0.0;
};

struct AnalysisStats {
  int files = 0;
  double summary_seconds = 0.0;    // lex + summarize + per-file rules
  double interproc_seconds = 0.0;  // index build + interprocedural rules
  double total_seconds = 0.0;
  std::map<std::string, RuleStats> rules;  // per rule id, post-suppression
};

struct AnalysisResult {
  std::vector<Finding> findings;  // sorted; suppressions already applied
  // Raw source lines per relative path, for baseline keying/serialization.
  std::map<std::string, std::vector<std::string>> lines;
  AnalysisStats stats;
};

// Lints one in-memory source with the per-file rules only (unit-testable
// without touching the filesystem).  `rel_path` is the path used in findings
// and exemptions.  Interprocedural rules need the project phase: use
// analyze_sources.
std::vector<Finding> analyze_source(const std::string& rel_path, const std::string& source,
                                    const AnalyzerOptions& options);

// Full two-phase analysis over in-memory (rel_path, content) pairs — the
// multi-file fixture sets drive this.
AnalysisResult analyze_sources(const std::vector<std::pair<std::string, std::string>>& sources,
                               const AnalyzerOptions& options);

// Full two-phase analysis over every C++ file under `paths` (files or
// directories, resolved against options.root when relative).  Paths under
// tests/lint/fixtures are skipped: the bad fixtures fail by design.  Throws
// std::runtime_error on I/O errors (missing path, unreadable file, empty
// directory tree).
AnalysisResult analyze_paths(const std::vector<std::string>& paths,
                             const AnalyzerOptions& options);

// Drops baselined findings (consuming credits) and returns the remainder.
std::vector<Finding> apply_baseline(const AnalysisResult& result, Baseline baseline);

}  // namespace hcs::lint
