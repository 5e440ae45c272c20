// Lint infrastructure tests: the lexer's literal/comment handling, the
// suppression-comment mechanism, rule selection, fixture-path skipping and
// the committed-baseline lifecycle.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/analyzer.hpp"
#include "lint/baseline.hpp"
#include "lint/lexer.hpp"
#include "lint/rules.hpp"

namespace hcs::lint {
namespace {

std::vector<Finding> run(const std::string& source, std::set<std::string> rules = {}) {
  AnalyzerOptions opts;
  opts.enabled_rules = std::move(rules);
  return analyze_source("src/clocksync/sample.cpp", source, opts);
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(LintLexer, KeywordsInCommentsAndStringsAreNotTokens) {
  const std::string src =
      "// co_await a() || b() inside a comment\n"
      "/* for (int v : std::unordered_set<int>{}) {} */\n"
      "const char* s = \"co_await x && y\";\n"
      "const char* r = R\"(for (auto& kv : unordered_map_) {})\";\n";
  EXPECT_TRUE(run(src).empty());
}

TEST(LintLexer, RawStringWithCustomDelimiter) {
  const LexedFile f = lex("x.cpp", "auto s = R\"ab(quote \" and )\" inside)ab\";");
  ASSERT_EQ(f.tokens.size(), 6u);  // auto s = <string> ; <eof>
  EXPECT_EQ(f.tokens[3].kind, TokKind::kString);
  EXPECT_EQ(f.tokens[3].text, "quote \" and )\" inside");
}

TEST(LintLexer, PreprocessorDirectivesProduceNoTokens) {
  const std::string src =
      "#include <random>\n"
      "#define BAD co_await a() + \\\n"
      "            b() && c()\n"
      "int x;\n";
  const LexedFile f = lex("x.cpp", src);
  ASSERT_EQ(f.tokens.size(), 4u);  // int x ; <eof>
  EXPECT_EQ(f.tokens[0].text, "int");
  EXPECT_EQ(f.tokens[1].line, 4);
  EXPECT_TRUE(run(src).empty());  // the co_await in the macro body is not scanned
}

TEST(LintLexer, MultiCharPunctuatorsAreLongestMunch) {
  const LexedFile f = lex("x.cpp", "a<<=b; c->*d; e<=>f; g::h;");
  std::vector<std::string> puncts;
  for (const Token& t : f.tokens) {
    if (t.kind == TokKind::kPunct && t.text != ";") puncts.push_back(t.text);
  }
  EXPECT_EQ(puncts, (std::vector<std::string>{"<<=", "->*", "<=>", "::"}));
}

TEST(LintLexer, LineCommentBackslashContinuationSwallowsTheNextLine) {
  // Phase-2 splicing runs before comment recognition: a backslash at the end
  // of a // comment extends it over the next physical line.
  const LexedFile f = lex("x.cpp", "// spliced \\\nint hidden;\nint visible;\n");
  ASSERT_EQ(f.tokens.size(), 4u);  // int visible ; <eof>
  EXPECT_EQ(f.tokens[1].text, "visible");
  ASSERT_EQ(f.comments.size(), 1u);
  EXPECT_EQ(f.comments[0].line, 1);
  EXPECT_EQ(f.comments[0].end_line, 2);
}

TEST(LintLexer, LineCommentCrlfContinuationAlsoSplices) {
  const LexedFile f = lex("x.cpp", "// spliced \\\r\nint hidden;\r\nint visible;\r\n");
  ASSERT_EQ(f.tokens.size(), 4u);
  EXPECT_EQ(f.tokens[1].text, "visible");
}

TEST(LintLexer, SplicedAllowNextLineCountsFromTheLastPhysicalLine) {
  const std::string src =
      "// hcs-lint: allow-next-line(unordered-iter) justified \\\n   shim\n"
      "void f(std::unordered_set<int>& s) { for (int v : s) use(v); }\n";
  EXPECT_TRUE(run(src).empty());
}

TEST(LintLexer, DirectiveCrlfContinuationStaysInsideTheDirective) {
  const std::string src = "#define BAD x \\\r\n            co_await a() && b()\r\nint y;\n";
  const LexedFile f = lex("x.cpp", src);
  ASSERT_EQ(f.tokens.size(), 4u);  // int y ; <eof>
  EXPECT_EQ(f.tokens[0].text, "int");
  EXPECT_EQ(f.tokens[0].line, 3);
  EXPECT_TRUE(run(src).empty());
}

TEST(LintLexer, UnterminatedRawStringAtEofDoesNotCrash) {
  // "R\"abc" with no "(" used to read past the buffer.
  const LexedFile f = lex("x.cpp", "auto s = R\"abc");
  ASSERT_EQ(f.tokens.size(), 5u);  // auto s = <string> <eof>
  EXPECT_EQ(f.tokens[3].kind, TokKind::kString);
  EXPECT_EQ(f.tokens[3].text, "abc");
}

TEST(LintLexer, UnterminatedRawStringBodyAtEofIsTheRemainder) {
  const LexedFile f = lex("x.cpp", "auto s = R\"ab(dangling");
  ASSERT_EQ(f.tokens.size(), 5u);
  EXPECT_EQ(f.tokens[3].kind, TokKind::kString);
  EXPECT_EQ(f.tokens[3].text, "dangling");
}

TEST(LintLexer, CommentsCarryLineRanges) {
  const LexedFile f = lex("x.cpp", "int a;\n/* two\nlines */\nint b; // tail\n");
  ASSERT_EQ(f.comments.size(), 2u);
  EXPECT_EQ(f.comments[0].line, 2);
  EXPECT_EQ(f.comments[0].end_line, 3);
  EXPECT_EQ(f.comments[1].text, "tail");
  EXPECT_EQ(f.comments[1].end_line, 4);
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

const char* kOneLoop = "void f(std::unordered_set<int>& s) { for (int v : s) use(v); }\n";

TEST(LintSuppression, FiresWithoutSuppression) {
  const std::vector<Finding> fs = run(kOneLoop);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "unordered-iter");
  EXPECT_EQ(fs[0].line, 1);
}

TEST(LintSuppression, AllowOnSameLine) {
  const std::string src =
      "void f(std::unordered_set<int>& s) { for (int v : s) use(v); }"
      "  // hcs-lint: allow(unordered-iter)\n";
  EXPECT_TRUE(run(src).empty());
}

TEST(LintSuppression, AllowNextLine) {
  const std::string src =
      "// hcs-lint: allow-next-line(unordered-iter) summed, order-free\n"
      "void f(std::unordered_set<int>& s) { for (int v : s) use(v); }\n";
  EXPECT_TRUE(run(src).empty());
}

TEST(LintSuppression, AllowNextLineAfterBlockCommentCountsFromItsLastLine) {
  const std::string src =
      "/* justification spanning\n"
      "   hcs-lint: allow-next-line(unordered-iter) */\n"
      "void f(std::unordered_set<int>& s) { for (int v : s) use(v); }\n";
  EXPECT_TRUE(run(src).empty());
}

TEST(LintSuppression, AllowFile) {
  const std::string src =
      "// hcs-lint: allow-file(unordered-iter)\n"
      "void f(std::unordered_set<int>& s) { for (int v : s) use(v); }\n"
      "void g(std::unordered_set<int>& s) { for (int v : s) use(v); }\n";
  EXPECT_TRUE(run(src).empty());
}

TEST(LintSuppression, SuppressionIsRuleSpecific) {
  const std::string src =
      "void f(std::unordered_set<int>& s) { for (int v : s) use(v); }"
      "  // hcs-lint: allow(co-await-subexpr)\n";
  const std::vector<Finding> fs = run(src);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "unordered-iter");
}

TEST(LintSuppression, MultipleRulesInOneAllow) {
  const std::string src =
      "Task<void> f(std::unordered_set<int>& s) { for (int v : s) co_await g(v) && h(); }"
      "  // hcs-lint: allow(unordered-iter, co-await-subexpr)\n";
  EXPECT_TRUE(run(src).empty());
}

TEST(LintSuppression, UnknownRuleNameIsItselfAFinding) {
  const std::vector<Finding> fs = run("int x;  // hcs-lint: allow(no-such-rule)\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "bad-suppression");
  EXPECT_NE(fs[0].message.find("no-such-rule"), std::string::npos);
}

TEST(LintSuppression, DeletedRuleNamesAreBadSuppressions) {
  // Host clocks, raw randomness and discarded Tasks are compile errors now,
  // not rules: an allow() naming one of the retired rules suppresses nothing
  // and is reported like any unknown name.
  for (const char* retired :
       {"wall-clock", "raw-random", "task-discard", "ip-wall-clock", "ip-raw-random"}) {
    SCOPED_TRACE(retired);
    EXPECT_EQ(find_rule(retired), nullptr);
    const std::vector<Finding> fs =
        run(std::string("int x;  // hcs-lint: allow(") + retired + ")\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, "bad-suppression");
    EXPECT_NE(fs[0].message.find(retired), std::string::npos);
  }
}

TEST(LintSuppression, MalformedAnnotationIsItselfAFinding) {
  const std::vector<Finding> fs = run("int x;  // hcs-lint: disable everything\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "bad-suppression");
}

// ---------------------------------------------------------------------------
// Rule selection and path exemptions
// ---------------------------------------------------------------------------

// One line that fires two rules: unordered-iter and co-await-subexpr.
const char* kTwoRuleSource =
    "Task<void> f(std::unordered_set<int>& s) { for (int v : s) co_await g(v) && h(); }\n";

TEST(LintSelection, EnabledRulesFilter) {
  const std::vector<Finding> fs = run(kTwoRuleSource, {"co-await-subexpr"});
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "co-await-subexpr");
}

TEST(LintSelection, AllRulesRunByDefault) {
  EXPECT_EQ(run(kTwoRuleSource).size(), 2u);
}

TEST(LintSelection, TestsAreExemptFromUncheckedSyncResult) {
  // The same discarded SyncResult is a finding under src/ and exempt under
  // tests/, the prefix in the rule's table row.
  const std::string def = "SyncResult run_sync() { return {}; }\n";
  const std::string call = "Task<void> go() { co_await run_sync(); }\n";
  AnalyzerOptions opts;
  const std::vector<Finding> in_tests =
      analyze_sources({{"tests/a.cpp", def}, {"tests/b.cpp", call}}, opts).findings;
  EXPECT_TRUE(in_tests.empty());
  const std::vector<Finding> fs =
      analyze_sources({{"src/clocksync/a.cpp", def}, {"src/clocksync/b.cpp", call}}, opts).findings;
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "ip-unchecked-sync-result");
  EXPECT_EQ(fs[0].path, "src/clocksync/b.cpp");
}

TEST(LintSelection, PathExemptMatchesWholePrefixesOnly) {
  const RuleInfo* sync = find_rule("ip-unchecked-sync-result");
  ASSERT_NE(sync, nullptr);
  EXPECT_TRUE(path_exempt(*sync, "tests/a.cpp"));
  EXPECT_TRUE(path_exempt(*sync, "tests/lint/deep/b.cpp"));
  EXPECT_FALSE(path_exempt(*sync, "src/tests/a.cpp")) << "a prefix, not a substring";
  EXPECT_FALSE(path_exempt(*sync, "tests.cpp"));
  EXPECT_FALSE(path_exempt(*sync, "src/clocksync/a.cpp"));
  // A rule without exempt prefixes applies everywhere.
  const RuleInfo* iter = find_rule("unordered-iter");
  ASSERT_NE(iter, nullptr);
  EXPECT_FALSE(path_exempt(*iter, "tests/a.cpp"));
  EXPECT_FALSE(path_exempt(*iter, "src/runner/a.cpp"));
}

TEST(LintPaths, FixtureDirectoryIsSkipped) {
  AnalyzerOptions opts;
  const AnalysisResult res = analyze_paths({HCS_LINT_FIXTURE_DIR}, opts);
  EXPECT_TRUE(res.findings.empty()) << "bad fixtures must not fail the repo-wide run";
  EXPECT_TRUE(res.lines.empty());
}

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------

Finding finding(const std::string& rule, const std::string& path, int line) {
  return Finding{rule, Severity::kError, path, line, 1, "msg"};
}

TEST(LintBaseline, RoundTripAndConsume) {
  const std::vector<std::string> lines = {"int a;", "for (int v : s) f(v);", "int b;"};
  const Finding f = finding("unordered-iter", "src/a.cpp", 2);
  const std::string text = Baseline::serialize({f}, {{"src/a.cpp", lines}});

  Baseline b;
  std::string err;
  ASSERT_TRUE(b.parse(text, &err)) << err;
  EXPECT_FALSE(b.empty());
  EXPECT_TRUE(b.consume(f, lines));
  EXPECT_FALSE(b.consume(f, lines)) << "one credit covers one finding";
}

TEST(LintBaseline, KeyIsLineNumberFree) {
  const std::vector<std::string> before = {"for (int v : s) f(v);"};
  // Shifted down two lines and respaced.
  const std::vector<std::string> after = {"", "", "for  (int v :  s)  f(v);"};
  const std::string text =
      Baseline::serialize({finding("unordered-iter", "src/a.cpp", 1)}, {{"src/a.cpp", before}});
  Baseline b;
  std::string err;
  ASSERT_TRUE(b.parse(text, &err)) << err;
  EXPECT_TRUE(b.consume(finding("unordered-iter", "src/a.cpp", 3), after));
}

TEST(LintBaseline, DifferentRuleOrPathDoesNotMatch) {
  const std::vector<std::string> lines = {"for (int v : s) f(v);"};
  const std::string text =
      Baseline::serialize({finding("unordered-iter", "src/a.cpp", 1)}, {{"src/a.cpp", lines}});
  Baseline b;
  std::string err;
  ASSERT_TRUE(b.parse(text, &err)) << err;
  EXPECT_FALSE(b.consume(finding("co-await-subexpr", "src/a.cpp", 1), lines));
  EXPECT_FALSE(b.consume(finding("unordered-iter", "src/b.cpp", 1), lines));
}

TEST(LintBaseline, CountsAccumulatePerIdenticalLine) {
  const std::vector<std::string> lines = {"for (int v : s) for (int w : s) use(v, w);"};
  const Finding f1 = finding("unordered-iter", "src/a.cpp", 1);
  const std::string text = Baseline::serialize({f1, f1}, {{"src/a.cpp", lines}});
  Baseline b;
  std::string err;
  ASSERT_TRUE(b.parse(text, &err)) << err;
  EXPECT_TRUE(b.consume(f1, lines));
  EXPECT_TRUE(b.consume(f1, lines));
  EXPECT_FALSE(b.consume(f1, lines));
}

TEST(LintBaseline, MalformedLineRejectedWithError) {
  Baseline b;
  std::string err;
  EXPECT_FALSE(b.parse("not-tab-separated\n", &err));
  EXPECT_FALSE(err.empty());
}

TEST(LintBaseline, CountIsDigitsOnly) {
  for (const char* count : {" 3", "+3", "3x", "-3", "0", "", "2147483648"}) {
    Baseline b;
    std::string err;
    EXPECT_FALSE(b.parse(std::string(count) + "\tunordered-iter\tsrc/a.cpp\tint x;\n", &err))
        << "'" << count << "'";
    EXPECT_NE(err.find("bad count"), std::string::npos) << err;
  }
  Baseline b;
  std::string err;
  EXPECT_TRUE(b.parse("2147483647\tunordered-iter\tsrc/a.cpp\tint x;\n", &err)) << err;
}

TEST(LintBaseline, CountTotalPastIntMaxRejected) {
  const std::string text =
      "2147483647\tunordered-iter\tsrc/a.cpp\tint x;\n"
      "1\tunordered-iter\tsrc/a.cpp\tint x;\n";
  Baseline b;
  std::string err;
  EXPECT_FALSE(b.parse(text, &err));
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_NE(err.find("INT_MAX"), std::string::npos) << err;
}

TEST(LintBaseline, CommentsAndBlankLinesIgnored) {
  Baseline b;
  std::string err;
  EXPECT_TRUE(b.parse("# header\n\n# more\n", &err)) << err;
  EXPECT_TRUE(b.empty());
}

TEST(LintBaseline, PathsWithSpacesRoundTrip) {
  const std::vector<std::string> lines = {"for (int v : s) f(v);"};
  const Finding f = finding("unordered-iter", "src/my dir/a file.cpp", 1);
  const std::string text = Baseline::serialize({f}, {{"src/my dir/a file.cpp", lines}});
  Baseline b;
  std::string err;
  ASSERT_TRUE(b.parse(text, &err)) << err;
  EXPECT_TRUE(b.consume(f, lines));
  EXPECT_TRUE(b.unknown_rule_warnings().empty());
}

TEST(LintBaseline, StaleRuleIdWarnsInsteadOfFailing) {
  // A baseline written before a rule was renamed/retired must stay loadable;
  // the entry is inert and surfaced as a warning.
  const std::string text =
      "# header\n"
      "1\tretired-rule\tsrc/a.cpp\tfor (int v : s) f(v);\n"
      "1\tunordered-iter\tsrc/a.cpp\tfor (int v : s) f(v);\n";
  Baseline b;
  std::string err;
  ASSERT_TRUE(b.parse(text, &err)) << err;
  ASSERT_EQ(b.unknown_rule_warnings().size(), 1u);
  EXPECT_NE(b.unknown_rule_warnings()[0].find("retired-rule"), std::string::npos);
  EXPECT_NE(b.unknown_rule_warnings()[0].find("line 2"), std::string::npos);
  // The known entry still works; the stale one never matches anything.
  EXPECT_TRUE(b.consume(finding("unordered-iter", "src/a.cpp", 1), {"for (int v : s) f(v);"}));
  EXPECT_FALSE(b.consume(finding("retired-rule", "src/a.cpp", 1), {"for (int v : s) f(v);"}));
}

TEST(LintBaseline, EntriesOfRetiredRulesLoadAsStale) {
  // A baseline committed while wall-clock and ip-raw-random were rules still
  // loads: each of their entries is one warning and matches nothing.
  const std::string text =
      "1\twall-clock\tbench/a.cpp\tauto t = now();\n"
      "1\tip-raw-random\tsrc/b.cpp\tjitter();\n";
  Baseline b;
  std::string err;
  ASSERT_TRUE(b.parse(text, &err)) << err;
  ASSERT_EQ(b.unknown_rule_warnings().size(), 2u);
  EXPECT_NE(b.unknown_rule_warnings()[0].find("wall-clock"), std::string::npos);
  EXPECT_NE(b.unknown_rule_warnings()[1].find("ip-raw-random"), std::string::npos);
  EXPECT_FALSE(b.consume(finding("wall-clock", "bench/a.cpp", 1), {"auto t = now();"}));
}

TEST(LintBaseline, BadSuppressionEntriesAreNotStale) {
  Baseline b;
  std::string err;
  ASSERT_TRUE(b.parse("1\tbad-suppression\tsrc/a.cpp\tint x;\n", &err)) << err;
  EXPECT_TRUE(b.unknown_rule_warnings().empty());
}

TEST(LintBaseline, ApplyBaselineKeepsOnlyFreshFindings) {
  AnalysisResult res;
  res.lines["src/a.cpp"] = {"for (int v : s) f(v);", "auto t = co_await a() && b();"};
  res.findings = {finding("unordered-iter", "src/a.cpp", 1),
                  finding("co-await-subexpr", "src/a.cpp", 2)};

  Baseline b;
  std::string err;
  ASSERT_TRUE(b.parse(Baseline::serialize({res.findings[0]}, {{"src/a.cpp", res.lines["src/a.cpp"]}}),
                      &err))
      << err;
  const std::vector<Finding> fresh = apply_baseline(res, std::move(b));
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].rule, "co-await-subexpr");
}

}  // namespace
}  // namespace hcs::lint
