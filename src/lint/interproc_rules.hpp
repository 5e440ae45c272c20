// Interprocedural hcs-lint rules (phase 2 of 2).
//
// These run over the merged per-file summaries and the ProjectIndex, not over
// tokens: they see only what phase 1 recorded, and of the rank-branch records
// only those inside a named function.  Each rule extends one per-file check
// across call edges (up to kMaxCallDepth edges, the PARCOACH-style bound on
// chain length):
//
//   ip-coll-rank-branch      rank-dependent branches whose *direct* collective
//                            calls match but whose transitive collective bags
//                            (through helper calls) diverge, and rank-dependent
//                            early exits that skip collectives hidden in
//                            helpers.
//   ip-unchecked-sync-result call sites of SyncResult-returning functions that
//                            drop the SyncReport health (discarded value,
//                            implicit ClockPtr narrowing, or a binding whose
//                            .report is never consulted).
//
// Path exemptions from rule_table() are applied here; suppression comments
// are applied by the analyzer (it owns the per-file suppression tables).
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/callgraph.hpp"
#include "lint/finding.hpp"
#include "lint/summary.hpp"

namespace hcs::lint {

// Interprocedural chain bound, in call edges.
inline constexpr std::size_t kMaxCallDepth = 4;

std::vector<Finding> run_interproc_rules(const std::vector<FileSummary>& files,
                                         const ProjectIndex& index,
                                         const std::set<std::string>& enabled,
                                         const std::function<double()>& now = {},
                                         std::map<std::string, double>* rule_seconds = nullptr);

}  // namespace hcs::lint
