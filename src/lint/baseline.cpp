#include "lint/baseline.hpp"

#include <cctype>
#include <charconv>
#include <limits>
#include <sstream>
#include <system_error>

#include "lint/rules.hpp"

namespace hcs::lint {

std::string Baseline::normalize_line(const std::string& line) {
  std::string out;
  bool in_ws = true;  // also trims leading whitespace
  for (char c : line) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!in_ws) out.push_back(' ');
      in_ws = true;
    } else {
      out.push_back(c);
      in_ws = false;
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

std::string Baseline::key(const Finding& f, const std::vector<std::string>& file_lines) {
  const std::size_t idx = static_cast<std::size_t>(f.line) - 1;
  const std::string line = idx < file_lines.size() ? normalize_line(file_lines[idx]) : "";
  return f.rule + "\t" + f.path + "\t" + line;
}

bool Baseline::parse(const std::string& text, std::string* error) {
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t t1 = line.find('\t');
    const std::size_t t2 = t1 == std::string::npos ? t1 : line.find('\t', t1 + 1);
    const std::size_t t3 = t2 == std::string::npos ? t2 : line.find('\t', t2 + 1);
    if (t3 == std::string::npos) {
      if (error) {
        *error = "baseline line " + std::to_string(lineno) +
                 ": expected 4 tab-separated fields (count, rule, path, source line)";
      }
      return false;
    }
    // Digits only: no sign, no blanks, no trailing text, and within int.
    int count = 0;
    const auto [end, ec] = std::from_chars(line.data(), line.data() + t1, count);
    if (ec != std::errc{} || end != line.data() + t1 || count <= 0) {
      if (error) {
        *error = "baseline line " + std::to_string(lineno) + ": bad count '" +
                 line.substr(0, t1) + "'";
      }
      return false;
    }
    const std::string k = line.substr(t1 + 1);  // rule \t path \t normalized line
    const std::string rule = line.substr(t1 + 1, t2 - t1 - 1);
    if (!find_rule(rule) && rule != "bad-suppression") {
      unknown_rule_warnings_.push_back("baseline line " + std::to_string(lineno) +
                                       ": rule '" + rule +
                                       "' no longer exists — entry is inert, consider "
                                       "regenerating the baseline");
      continue;  // no credits: findings can never match a retired rule id
    }
    int& credit = credits_[k];
    if (count > std::numeric_limits<int>::max() - credit) {
      if (error) {
        *error = "baseline line " + std::to_string(lineno) +
                 ": counts for one entry exceed INT_MAX";
      }
      return false;
    }
    credit += count;
  }
  return true;
}

bool Baseline::consume(const Finding& f, const std::vector<std::string>& file_lines) {
  const auto it = credits_.find(key(f, file_lines));
  if (it == credits_.end() || it->second <= 0) return false;
  --it->second;
  return true;
}

std::string Baseline::serialize(const std::vector<Finding>& findings,
                                const std::map<std::string, std::vector<std::string>>& lines) {
  std::map<std::string, int> counts;
  for (const Finding& f : findings) {
    const auto it = lines.find(f.path);
    static const std::vector<std::string> kNone;
    counts[key(f, it == lines.end() ? kNone : it->second)] += 1;
  }
  std::ostringstream out;
  out << "# hcs-lint baseline: known findings that do not fail the build.\n"
      << "# Format: <count>\\t<rule>\\t<path>\\t<normalized source line>.\n"
      << "# Regenerate with: tools/hcs_lint --write-baseline <this file> <paths>\n";
  for (const auto& [k, n] : counts) out << n << "\t" << k << "\n";
  return out.str();
}

}  // namespace hcs::lint
