// The hcs-lint CLI — in-repo static analysis for collective matching,
// determinism hygiene and coroutine-lifetime hazards, with whole-program
// (cross-TU) interprocedural rules.  See docs/static-analysis.md.
//
// Usage:
//   hcs_lint [options] <paths...>  (paths default to src bench examples tests tools)
//     --root DIR             repo root; relative paths resolve against it (default: cwd)
//     --rule ID              run only this rule (repeatable)
//     --sarif FILE           also write the findings as SARIF 2.1.0
//     --list-rules           print the rule table and exit
//
// Exit codes: 0 clean, 1 findings, 2 usage or I/O error.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "lint/analyzer.hpp"
#include "lint/rules.hpp"
#include "lint/sarif.hpp"
#include "util/cli.hpp"

namespace {

int list_rules() {
  for (const auto& r : hcs::lint::rule_table()) {
    std::cout << r.id << "  [" << r.category << ", " << to_string(r.severity)
              << (r.interprocedural ? ", interprocedural" : "") << "]\n    " << r.summary
              << "\n";
    for (const auto& p : r.exempt_path_prefixes) {
      std::cout << "    exempt: " << p << "\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hcs;
  try {
    const util::Cli cli(argc, argv, {"list-rules"});
    cli.reject_unknown({"root", "rule", "sarif", "list-rules"});
    if (cli.has("list-rules")) return list_rules();

    lint::AnalyzerOptions options;
    options.root = cli.get("root", "");
    for (const std::string& id : cli.get_all("rule")) {
      if (!lint::find_rule(id)) {
        std::cerr << "hcs-lint: unknown rule '" << id << "' (see --list-rules)\n";
        return 2;
      }
      options.enabled_rules.insert(id);
    }

    std::vector<std::string> paths = cli.positional();
    if (paths.empty()) paths = {"src", "bench", "examples", "tests", "tools"};
    const lint::AnalysisResult result = lint::analyze_paths(paths, options);

    const std::string sarif_path = cli.get("sarif", "");
    if (!sarif_path.empty()) {
      std::ofstream out(sarif_path, std::ios::binary);
      if (!out) throw std::runtime_error("hcs-lint: cannot write " + sarif_path);
      out << lint::to_sarif(result.findings);
    }

    for (const auto& f : result.findings) {
      std::cout << f.path << ":" << f.line << ":" << f.col << ": " << to_string(f.severity)
                << ": " << f.message << " [" << f.rule << "]\n";
    }
    if (result.findings.empty()) {
      std::cout << "hcs-lint: clean (" << result.stats.files << " files)\n";
      return 0;
    }
    std::cout << "hcs-lint: " << result.findings.size() << " finding(s) in "
              << result.stats.files << " files\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}
