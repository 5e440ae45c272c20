// Fixture-driven rule tests: every per-file rule has a bad fixture whose
// `// hcs-lint-expect: <rule-id>` annotations name the exact findings it must
// produce (rule id + line), and a good fixture that must stay silent.  An
// interprocedural rule that also fires within one file may have a pair too.
// The pairing itself is enforced: adding a rule without fixtures fails RuleTable.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint/analyzer.hpp"
#include "lint/rules.hpp"

namespace hcs::lint {
namespace {

namespace fs = std::filesystem;

const fs::path kFixtureDir = HCS_LINT_FIXTURE_DIR;

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

// Findings and expectations both reduce to (line, rule) pairs with
// multiplicity — two awaits on one line mean two findings on that line.
using LineRule = std::pair<int, std::string>;

std::multiset<LineRule> expectations(const std::string& source) {
  std::multiset<LineRule> out;
  std::istringstream in(source);
  std::string line;
  int n = 0;
  while (std::getline(in, line)) {
    ++n;
    const std::size_t at = line.find("hcs-lint-expect:");
    if (at == std::string::npos) continue;
    std::string cur;
    const auto flush = [&] {
      if (!cur.empty()) out.insert({n, cur});
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
  return out;
}

std::multiset<LineRule> as_line_rules(const std::vector<Finding>& findings) {
  std::multiset<LineRule> out;
  for (const Finding& f : findings) out.insert({f.line, f.rule});
  return out;
}

std::string dump(const std::multiset<LineRule>& s) {
  std::ostringstream os;
  for (const auto& [line, rule] : s) os << "  line " << line << ": " << rule << "\n";
  return s.empty() ? "  (none)\n" : os.str();
}

// Runs the full two-phase analysis over the fixture as a one-file program, so
// an interprocedural rule with a single-file pair is checked like the others.
std::vector<Finding> run_fixture(const fs::path& path, const std::string& source) {
  return analyze_sources({{"tests/lint/fixtures/" + path.filename().string(), source}}, {})
      .findings;
}

class FixturePair : public ::testing::TestWithParam<std::string> {};

TEST_P(FixturePair, BadFixtureFiresExactlyTheAnnotatedFindings) {
  const std::string rule = GetParam();
  const fs::path path = kFixtureDir / ("bad_" + underscored(rule) + ".cpp");
  const std::string source = read_file(path);
  const std::multiset<LineRule> expected = expectations(source);
  ASSERT_FALSE(expected.empty()) << path << " has no hcs-lint-expect annotations";

  const std::vector<Finding> findings = run_fixture(path, source);
  const std::multiset<LineRule> actual = as_line_rules(findings);
  EXPECT_EQ(expected, actual) << "expected findings:\n"
                              << dump(expected) << "actual findings:\n"
                              << dump(actual);
  for (const auto& [line, r] : expected) {
    EXPECT_EQ(r, rule) << path << ":" << line
                       << " annotates a different rule than the fixture is named for";
  }
}

TEST_P(FixturePair, GoodFixtureStaysSilent) {
  const std::string rule = GetParam();
  const fs::path path = kFixtureDir / ("good_" + underscored(rule) + ".cpp");
  const std::string source = read_file(path);
  ASSERT_EQ(source.find("hcs-lint-expect"), std::string::npos)
      << path << ": good fixtures must not carry expect annotations";

  const std::vector<Finding> findings = run_fixture(path, source);
  std::ostringstream os;
  for (const Finding& f : findings) {
    os << "  " << f.path << ":" << f.line << ": " << f.message << " [" << f.rule << "]\n";
  }
  EXPECT_TRUE(findings.empty()) << "good fixture produced findings:\n" << os.str();
}

bool has_single_file_pair(const std::string& rule) {
  return fs::exists(kFixtureDir / ("bad_" + underscored(rule) + ".cpp"));
}

// Every per-file rule, and each interprocedural rule that also fires within
// one file (coll-rank-branch on direct collectives).
std::vector<std::string> paired_rule_ids() {
  std::vector<std::string> ids;
  for (const RuleInfo& r : rule_table()) {
    if (!r.interprocedural || has_single_file_pair(r.id)) ids.push_back(r.id);
  }
  return ids;
}

INSTANTIATE_TEST_SUITE_P(AllRules, FixturePair, ::testing::ValuesIn(paired_rule_ids()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return underscored(info.param);
                         });

// Counts *.cpp files directly inside `dir` (the multi-file ip fixture sets).
std::size_t cpp_files_in(const fs::path& dir) {
  if (!fs::is_directory(dir)) return 0;
  std::size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".cpp") ++n;
  }
  return n;
}

TEST(RuleTable, EveryRuleHasAFixturePairOnDisk) {
  for (const RuleInfo& r : rule_table()) {
    if (r.interprocedural) {
      // Interprocedural rules need multi-file sets: ip/<rule>/{bad,good}/.
      const fs::path base = kFixtureDir / "ip" / underscored(r.id);
      EXPECT_GE(cpp_files_in(base / "bad"), 2u)
          << "rule " << r.id << " needs a multi-file bad set under " << (base / "bad");
      EXPECT_GE(cpp_files_in(base / "good"), 2u)
          << "rule " << r.id << " needs a multi-file good set under " << (base / "good");
      // A single-file pair is optional here, but never half of one.
      if (!has_single_file_pair(r.id)) {
        EXPECT_FALSE(fs::exists(kFixtureDir / ("good_" + underscored(r.id) + ".cpp")))
            << "rule " << r.id << " has a good fixture but no bad one";
        continue;
      }
    }
    EXPECT_TRUE(fs::exists(kFixtureDir / ("bad_" + underscored(r.id) + ".cpp")))
        << "rule " << r.id << " has no bad fixture";
    EXPECT_TRUE(fs::exists(kFixtureDir / ("good_" + underscored(r.id) + ".cpp")))
        << "rule " << r.id << " has no good fixture";
  }
}

TEST(RuleTable, EveryIpFixtureDirectoryNamesAKnownInterproceduralRule) {
  const fs::path ip_dir = kFixtureDir / "ip";
  ASSERT_TRUE(fs::is_directory(ip_dir));
  for (const auto& entry : fs::directory_iterator(ip_dir)) {
    ASSERT_TRUE(entry.is_directory()) << entry.path() << " is not a per-rule directory";
    std::string id = entry.path().filename().string();
    for (char& c : id) {
      if (c == '_') c = '-';
    }
    const RuleInfo* rule = find_rule(id);
    ASSERT_NE(rule, nullptr) << entry.path() << " names unknown rule '" << id << "'";
    EXPECT_TRUE(rule->interprocedural)
        << entry.path() << ": only interprocedural rules live under ip/";
  }
}

TEST(RuleTable, EveryFixtureOnDiskNamesAKnownRule) {
  for (const auto& entry : fs::directory_iterator(kFixtureDir)) {
    if (entry.is_directory()) continue;  // ip/ holds the interprocedural sets
    std::string stem = entry.path().stem().string();
    std::string prefix;
    for (const char* p : {"bad_", "good_"}) {
      if (stem.rfind(p, 0) == 0) prefix = p;
    }
    ASSERT_FALSE(prefix.empty()) << "fixture " << entry.path()
                                 << " is not named bad_<rule>.cpp or good_<rule>.cpp";
    std::string id = stem.substr(prefix.size());
    for (char& c : id) {
      if (c == '_') c = '-';
    }
    EXPECT_NE(find_rule(id), nullptr) << "fixture " << entry.path()
                                      << " names unknown rule '" << id << "'";
  }
}

TEST(RuleTable, IdsAreUniqueAndCategorized) {
  std::set<std::string> seen;
  const std::set<std::string> kCategories = {"collective-matching", "determinism",
                                             "coroutine-lifetime"};
  for (const RuleInfo& r : rule_table()) {
    EXPECT_TRUE(seen.insert(r.id).second) << "duplicate rule id " << r.id;
    EXPECT_TRUE(kCategories.count(r.category)) << r.id << ": unknown category " << r.category;
    EXPECT_FALSE(r.summary.empty()) << r.id << ": empty summary";
  }
}

}  // namespace
}  // namespace hcs::lint
