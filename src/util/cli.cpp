#include "util/cli.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

namespace hcs::util {

namespace {

// Whole-string numeric parse: "2x", "0.5abc", "" and out-of-range values
// throw, naming `what` (an option or list entry) and the text.
template <typename T>
T parse_number(const std::string& text, const std::string& what) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    throw std::invalid_argument(what + ": value '" + text + "' is out of range");
  }
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument(what + ": invalid number '" + text + "'");
  }
  return value;
}

// Worker/shard counts: --key beats fallback.  A whole number in
// [0, INT_MAX]; a wider value is out of range, not silently narrowed.
int count_option(const Cli& cli, const std::string& key, int fallback) {
  int n = fallback;
  if (cli.has(key)) n = parse_number<int>(cli.get(key, ""), "--" + key);
  if (n < 0) {
    throw std::invalid_argument(key + " must be >= 0 (0 = one per hardware thread), got " +
                                std::to_string(n));
  }
  return n;
}

}  // namespace

int parse_int(const std::string& text, const std::string& what) {
  return parse_number<int>(text, what);
}

Cli::Cli(int argc, const char* const* argv, std::vector<std::string> known_flags) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string key = arg.substr(2);
    std::string value;
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else {
      const bool is_flag =
          std::find(known_flags.begin(), known_flags.end(), key) != known_flags.end();
      value = (is_flag || i + 1 >= argc) ? "1" : argv[++i];
    }
    options_[key] = value;
    repeated_[key].push_back(std::move(value));
  }
}

void Cli::reject_unknown(const std::vector<std::string>& known_options) const {
  for (const auto& [key, value] : options_) {
    if (std::find(known_options.begin(), known_options.end(), key) != known_options.end()) {
      continue;
    }
    std::string known = "(known:";
    for (const std::string& k : known_options) known += " --" + k;
    known += ")";
    throw std::invalid_argument("unknown option --" + key + " " + known);
  }
}

bool Cli::has(const std::string& key) const { return options_.count(key) > 0; }

std::string Cli::get(const std::string& key, const std::string& fallback) const {
  const auto it = options_.find(key);
  return it == options_.end() ? fallback : it->second;
}

double Cli::get_double(const std::string& key, double fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  return parse_number<double>(it->second, "--" + key);
}

std::int64_t Cli::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  return parse_number<std::int64_t>(it->second, "--" + key);
}

std::vector<std::string> Cli::get_all(const std::string& key) const {
  const auto it = repeated_.find(key);
  return it == repeated_.end() ? std::vector<std::string>{} : it->second;
}

double Cli::scale(double fallback) const {
  const double s = get_double("scale", fallback);
  if (!(s > 0.0 && s <= 4.0)) {
    throw std::invalid_argument("scale must be in (0, 4], got " + std::to_string(s));
  }
  return s;
}

std::uint64_t Cli::seed(std::uint64_t fallback) const {
  return static_cast<std::uint64_t>(get_int("seed", static_cast<std::int64_t>(fallback)));
}

int Cli::jobs(int fallback) const {
  return count_option(*this, "jobs", fallback);
}

int Cli::shards(int fallback) const {
  return count_option(*this, "shards", fallback);
}

}  // namespace hcs::util
