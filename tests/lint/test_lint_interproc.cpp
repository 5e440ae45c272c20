// Whole-program (phase 2) tests: the per-rule multi-file fixture sets under
// fixtures/ip/<rule>/{bad,good}/, the ProjectIndex resolution contract, the
// call-depth bound and the SARIF export.
//
// Every fixture file's first line is a virtual-path directive
//   // hcs-lint-path: <rel path>
// so one on-disk set can model exempt directories (tests/, ...)
// without polluting the real tree.  Bad files carry hcs-lint-expect
// annotations naming the exact rule + line of every finding.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "lint/analyzer.hpp"
#include "lint/callgraph.hpp"
#include "lint/lexer.hpp"
#include "lint/rules.hpp"
#include "lint/sarif.hpp"
#include "lint/summary.hpp"
#include "support/mini_json.hpp"

namespace hcs::lint {
namespace {

namespace fs = std::filesystem;

const fs::path kFixtureDir = HCS_LINT_FIXTURE_DIR;

using Sources = std::vector<std::pair<std::string, std::string>>;

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read fixture " << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string underscored(std::string rule) {
  for (char& c : rule) {
    if (c == '-') c = '_';
  }
  return rule;
}

// Loads a fixture set, mapping each file to the virtual path named by its
// first-line hcs-lint-path directive.
Sources load_set(const fs::path& dir) {
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".cpp") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  Sources out;
  for (const fs::path& p : paths) {
    const std::string content = read_file(p);
    const std::string kDirective = "// hcs-lint-path: ";
    EXPECT_EQ(content.rfind(kDirective, 0), 0u)
        << p << " must start with '" << kDirective << "<rel path>'";
    const std::size_t eol = content.find('\n');
    std::string rel = content.substr(kDirective.size(),
                                     eol == std::string::npos ? std::string::npos
                                                              : eol - kDirective.size());
    while (!rel.empty() && (rel.back() == ' ' || rel.back() == '\r')) rel.pop_back();
    out.emplace_back(std::move(rel), content);
  }
  return out;
}

// Findings and expectations reduce to (virtual path, line, rule) triples.
using PathLineRule = std::tuple<std::string, int, std::string>;

std::multiset<PathLineRule> expectations(const Sources& sources) {
  std::multiset<PathLineRule> out;
  for (const auto& [rel, content] : sources) {
    std::istringstream in(content);
    std::string line;
    int n = 0;
    while (std::getline(in, line)) {
      ++n;
      const std::size_t at = line.find("hcs-lint-expect:");
      if (at == std::string::npos) continue;
      std::string cur;
      const auto flush = [&, rel = rel] {
        if (!cur.empty()) out.insert({rel, n, cur});
        cur.clear();
      };
      for (std::size_t i = at + 16; i < line.size(); ++i) {
        const char c = line[i];
        if (c == ',') {
          flush();
        } else if (c != ' ' && c != '\t') {
          cur.push_back(c);
        }
      }
      flush();
    }
  }
  return out;
}

std::multiset<PathLineRule> as_triples(const std::vector<Finding>& findings) {
  std::multiset<PathLineRule> out;
  for (const Finding& f : findings) out.insert({f.path, f.line, f.rule});
  return out;
}

std::string dump(const std::multiset<PathLineRule>& s) {
  std::ostringstream os;
  for (const auto& [path, line, rule] : s) os << "  " << path << ":" << line << ": " << rule << "\n";
  return s.empty() ? "  (none)\n" : os.str();
}

std::vector<Finding> run_set(const Sources& sources, const std::string& rule) {
  AnalyzerOptions opts;
  opts.enabled_rules = {rule};
  return analyze_sources(sources, opts).findings;
}

class IpFixtureSet : public ::testing::TestWithParam<std::string> {};

TEST_P(IpFixtureSet, BadSetFiresExactlyTheAnnotatedFindings) {
  const std::string rule = GetParam();
  const Sources sources = load_set(kFixtureDir / "ip" / underscored(rule) / "bad");
  ASSERT_GE(sources.size(), 2u) << "interprocedural sets must span multiple files";
  const std::multiset<PathLineRule> expected = expectations(sources);
  ASSERT_FALSE(expected.empty()) << "bad set has no hcs-lint-expect annotations";
  const std::multiset<PathLineRule> actual = as_triples(run_set(sources, rule));
  EXPECT_EQ(expected, actual) << "expected findings:\n"
                              << dump(expected) << "actual findings:\n"
                              << dump(actual);
  for (const auto& [path, line, r] : expected) {
    EXPECT_EQ(r, rule) << path << ":" << line
                       << " annotates a different rule than the set is named for";
  }
}

TEST_P(IpFixtureSet, GoodSetStaysSilent) {
  const std::string rule = GetParam();
  const Sources sources = load_set(kFixtureDir / "ip" / underscored(rule) / "good");
  ASSERT_GE(sources.size(), 2u);
  const std::multiset<PathLineRule> expected = expectations(sources);
  ASSERT_TRUE(expected.empty()) << "good sets must not carry expect annotations";
  const std::vector<Finding> findings = run_set(sources, rule);
  EXPECT_TRUE(findings.empty()) << "good set produced findings:\n" << dump(as_triples(findings));
}

std::vector<std::string> ip_rule_ids() {
  std::vector<std::string> ids;
  for (const RuleInfo& r : rule_table()) {
    if (r.interprocedural) ids.push_back(r.id);
  }
  return ids;
}

INSTANTIATE_TEST_SUITE_P(AllIpRules, IpFixtureSet, ::testing::ValuesIn(ip_rule_ids()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return underscored(info.param);
                         });

// ---------------------------------------------------------------------------
// ProjectIndex
// ---------------------------------------------------------------------------

FileSummary summarize(const std::string& rel, const std::string& src) {
  return build_summary(lex(rel, src), rel);
}

TEST(ProjectIndex, UniqueNameResolvesAmbiguousDoesNot) {
  std::vector<FileSummary> files;
  files.push_back(summarize("src/a.cpp", "int only_here() { return 1; }\n"
                                         "int twice() { return 2; }\n"));
  files.push_back(summarize("src/b.cpp", "int twice() { return 3; }\n"));
  const ProjectIndex index = ProjectIndex::build(files);

  const FuncRef* unique = index.resolve("only_here");
  ASSERT_NE(unique, nullptr);
  EXPECT_EQ(unique->file->rel_path, "src/a.cpp");
  EXPECT_EQ(describe(*unique), "only_here (src/a.cpp:1)");

  EXPECT_EQ(index.resolve("twice"), nullptr) << "ambiguous names must not resolve";
  EXPECT_EQ(index.candidates("twice").size(), 2u);
  EXPECT_EQ(index.resolve("undefined_anywhere"), nullptr);
  EXPECT_TRUE(index.candidates("undefined_anywhere").empty());
}

TEST(ProjectIndex, AllReturnSyncResultRequiresEveryCandidateToAgree) {
  std::vector<FileSummary> files;
  files.push_back(summarize("src/a.cpp",
                            "SyncResult sync_clocks(Comm& c) { return SyncResult{}; }\n"));
  files.push_back(summarize("src/b.cpp",
                            "SyncResult sync_clocks(Comm& c) { return SyncResult{}; }\n"
                            "int plain() { return 0; }\n"));
  const ProjectIndex index = ProjectIndex::build(files);
  EXPECT_TRUE(index.all_return_sync_result("sync_clocks"))
      << "same-named overrides that all return SyncResult must agree";
  EXPECT_FALSE(index.all_return_sync_result("plain"));
  EXPECT_FALSE(index.all_return_sync_result("undefined_anywhere"));
}

TEST(ProjectIndex, StdIshNamesNeverBecomeCallEdges) {
  // A project that happens to define clear() must not absorb every container
  // clear() in the repo: the summary drops stoplisted names at extraction.
  const FileSummary s = summarize(
      "src/a.cpp", "void caller(std::vector<int>& v) { v.clear(); helper_fn(v); }\n");
  ASSERT_EQ(s.functions.size(), 1u);
  ASSERT_EQ(s.functions[0].calls.size(), 1u);
  EXPECT_EQ(s.functions[0].calls[0].name, "helper_fn");
}

TEST(InterprocDepth, MaxCallDepthBoundsThePropagation) {
  // A 6-edge chain: c6 -> c5 -> c4 -> c3 -> c2 -> c1 -> barrier.  Four
  // rounds carry the barrier into the bags of c2..c5, so the five
  // rank-dependent branches that call c1..c5 diverge from their empty else
  // arms, and the one that calls c6 does not.  The chain is declared in call
  // order, which a round that read the bags it was updating would cross in
  // one pass: the bound holds in call edges whatever the order.
  const Sources sources = {
      {"src/clocksync/z.cpp",
       "sim::Task<void> c1(Comm& comm) { co_await barrier(comm); }\n"
       "sim::Task<void> c2(Comm& comm) { co_await c1(comm); }\n"
       "sim::Task<void> c3(Comm& comm) { co_await c2(comm); }\n"
       "sim::Task<void> c4(Comm& comm) { co_await c3(comm); }\n"
       "sim::Task<void> c5(Comm& comm) { co_await c4(comm); }\n"
       "sim::Task<void> c6(Comm& comm) { co_await c5(comm); }\n"
       "sim::Task<void> drive(Comm& comm) {\n"
       "  const int r = comm.rank();\n"
       "  if (r == 1) co_await c1(comm);\n"
       "  if (r == 2) co_await c2(comm);\n"
       "  if (r == 3) co_await c3(comm);\n"
       "  if (r == 4) co_await c4(comm);\n"
       "  if (r == 5) co_await c5(comm);\n"
       "  if (r == 6) co_await c6(comm);\n"
       "}\n"},
  };
  AnalyzerOptions opts;
  opts.enabled_rules = {"ip-coll-rank-branch"};
  const std::vector<Finding> findings = analyze_sources(sources, opts).findings;
  ASSERT_EQ(findings.size(), 5u) << "the bound is 4 call edges of propagation";
  for (const Finding& f : findings) {
    EXPECT_NE(f.line, 14) << "the c6 -> c5 edge lies beyond the bound: " << f.message;
  }
}

TEST(InterprocDepth, MaxCallDepthBoundsThePropagationInReverseOrder) {
  // The chain of MaxCallDepthBoundsThePropagation declared callers first and
  // split over two files: the same five findings, and none for c6.
  const Sources sources = {
      {"src/clocksync/y.cpp",
       "sim::Task<void> c6(Comm& comm) { co_await c5(comm); }\n"
       "sim::Task<void> c5(Comm& comm) { co_await c4(comm); }\n"
       "sim::Task<void> c4(Comm& comm) { co_await c3(comm); }\n"
       "sim::Task<void> drive(Comm& comm) {\n"
       "  const int r = comm.rank();\n"
       "  if (r == 1) co_await c1(comm);\n"
       "  if (r == 2) co_await c2(comm);\n"
       "  if (r == 3) co_await c3(comm);\n"
       "  if (r == 4) co_await c4(comm);\n"
       "  if (r == 5) co_await c5(comm);\n"
       "  if (r == 6) co_await c6(comm);\n"
       "}\n"},
      {"src/clocksync/z.cpp",
       "sim::Task<void> c3(Comm& comm) { co_await c2(comm); }\n"
       "sim::Task<void> c2(Comm& comm) { co_await c1(comm); }\n"
       "sim::Task<void> c1(Comm& comm) { co_await barrier(comm); }\n"},
  };
  AnalyzerOptions opts;
  opts.enabled_rules = {"ip-coll-rank-branch"};
  const std::vector<Finding> findings = analyze_sources(sources, opts).findings;
  ASSERT_EQ(findings.size(), 5u) << "the bound is 4 call edges of propagation";
  for (const Finding& f : findings) {
    EXPECT_EQ(f.path, "src/clocksync/y.cpp");
    EXPECT_NE(f.line, 11) << "the c6 -> c5 edge lies beyond the bound: " << f.message;
  }
}

// ---------------------------------------------------------------------------
// SARIF
// ---------------------------------------------------------------------------

// A collective hidden in a helper of another file, reached from one arm of a
// rank-dependent branch: one ip-coll-rank-branch finding.
Sources hidden_collective_project() {
  return {
      {"src/clocksync/helper.cpp",
       "sim::Task<void> settle(Comm& comm) {\n"
       "  co_await barrier(comm);\n"
       "}\n"},
      {"src/clocksync/caller.cpp",
       "sim::Task<void> sample(Comm& comm) {\n"
       "  if (comm.rank() == 0) co_await settle(comm);\n"
       "}\n"},
      {"src/clocksync/other.cpp", "int unrelated() { return 7; }\n"},
  };
}

TEST(Sarif, ExportIsValidAndCarriesRulesAndResults) {
  AnalyzerOptions opts;
  const AnalysisResult res = analyze_sources(hidden_collective_project(), opts);
  ASSERT_FALSE(res.findings.empty());

  const testsupport::JsonValue doc = testsupport::JsonParser::parse(to_sarif(res.findings));
  EXPECT_EQ(doc.at("version").as_string(), "2.1.0");
  const auto& run = doc.at("runs").as_array().at(0);
  const auto& driver = run.at("tool").at("driver");
  EXPECT_EQ(driver.at("name").as_string(), "hcs-lint");

  std::set<std::string> rule_ids;
  for (const auto& r : driver.at("rules").as_array()) rule_ids.insert(r.at("id").as_string());
  for (const RuleInfo& r : rule_table()) {
    EXPECT_TRUE(rule_ids.count(r.id)) << "rule " << r.id << " missing from SARIF rule table";
  }
  EXPECT_TRUE(rule_ids.count("bad-suppression"));

  const auto& results = run.at("results").as_array();
  ASSERT_EQ(results.size(), res.findings.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    EXPECT_EQ(r.at("ruleId").as_string(), res.findings[i].rule);
    const auto& loc = r.at("locations").as_array().at(0).at("physicalLocation");
    EXPECT_EQ(loc.at("artifactLocation").at("uri").as_string(), res.findings[i].path);
    EXPECT_EQ(static_cast<int>(loc.at("region").at("startLine").as_number()),
              res.findings[i].line);
  }
}

TEST(Sarif, EmptyFindingsStillProduceAValidDocument) {
  const testsupport::JsonValue doc = testsupport::JsonParser::parse(to_sarif({}));
  EXPECT_TRUE(doc.at("runs").as_array().at(0).at("results").as_array().empty());
}

}  // namespace
}  // namespace hcs::lint
