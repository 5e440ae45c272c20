#include "fault/fault_plan.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>

namespace hcs::fault {

namespace {

[[noreturn]] void bad_spec(const std::string& spec, const std::string& why) {
  throw std::invalid_argument("bad fault spec '" + spec + "': " + why);
}

/// Parses a finite numeric value with an optional s/ms/us/ns duration
/// suffix.  `allow_unit` is false for probabilities, factors and ppm values.
/// NaN and infinity are rejected: NaN passes every `<`/`>` range check.
double parse_value(const std::string& spec, const std::string& key, const std::string& text,
                   bool allow_unit) {
  const std::string not_a_number = "value of '" + key + "' is not a number";
  // std::stod skips leading blanks; a value must start right after the '='.
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    bad_spec(spec, not_a_number);
  }
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &pos);
  } catch (const std::exception&) {
    bad_spec(spec, not_a_number);
  }
  if (!std::isfinite(value)) bad_spec(spec, "value of '" + key + "' is not finite");
  const std::string unit = text.substr(pos);
  if (unit.empty()) return value;
  if (!allow_unit) bad_spec(spec, "'" + key + "' takes a plain number, got unit '" + unit + "'");
  if (unit == "s") return value;
  if (unit == "ms") return value * 1e-3;
  if (unit == "us") return value * 1e-6;
  if (unit == "ns") return value * 1e-9;
  bad_spec(spec, "unknown unit '" + unit + "' on '" + key + "' (use s, ms, us or ns)");
}

int parse_rank(const std::string& spec, const std::string& text) {
  std::size_t pos = 0;
  int rank = -1;
  try {
    rank = std::stoi(text, &pos);
  } catch (const std::exception&) {
    bad_spec(spec, "rank is not an integer");
  }
  if (pos != text.size() || rank < 0) bad_spec(spec, "rank must be a non-negative integer");
  return rank;
}

NetLevel parse_level(const std::string& spec, const std::string& text) {
  if (text == "network" || text == "all") return NetLevel::kAll;
  if (text == "intra_socket") return NetLevel::kIntraSocket;
  if (text == "intra_node") return NetLevel::kIntraNode;
  if (text == "inter_node") return NetLevel::kInterNode;
  bad_spec(spec, "unknown level '" + text +
                     "' (use network, intra_socket, intra_node or inter_node)");
}

FaultKind parse_kind(const std::string& spec, const std::string& text) {
  if (text == "drop") return FaultKind::kDrop;
  if (text == "duplicate") return FaultKind::kDuplicate;
  if (text == "reorder") return FaultKind::kReorder;
  if (text == "burst") return FaultKind::kBurst;
  if (text == "straggler") return FaultKind::kStraggler;
  if (text == "clockstep") return FaultKind::kClockStep;
  if (text == "freqjump") return FaultKind::kFreqJump;
  if (text == "pause") return FaultKind::kPause;
  if (text == "crash") return FaultKind::kCrash;
  if (text == "crashlink") return FaultKind::kCrashLink;
  if (text == "leave") return FaultKind::kLeave;
  if (text == "join") return FaultKind::kJoin;
  if (text == "rejoin") return FaultKind::kRejoin;
  bad_spec(spec, "unknown fault kind '" + text +
                     "' (drop, duplicate, reorder, burst, straggler, clockstep, freqjump, pause, "
                     "crash, crashlink, leave, join, rejoin)");
}

/// Formats a double compactly and losslessly enough for describe().
std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kReorder: return "reorder";
    case FaultKind::kBurst: return "burst";
    case FaultKind::kStraggler: return "straggler";
    case FaultKind::kClockStep: return "clockstep";
    case FaultKind::kFreqJump: return "freqjump";
    case FaultKind::kPause: return "pause";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kCrashLink: return "crashlink";
    case FaultKind::kLeave: return "leave";
    case FaultKind::kJoin: return "join";
    case FaultKind::kRejoin: return "rejoin";
  }
  return "?";
}

const char* to_string(NetLevel level) {
  switch (level) {
    case NetLevel::kAll: return "network";
    case NetLevel::kIntraSocket: return "intra_socket";
    case NetLevel::kIntraNode: return "intra_node";
    case NetLevel::kInterNode: return "inter_node";
  }
  return "?";
}

std::string FaultSpec::describe() const {
  std::string out = to_string(kind);
  out += ':';
  const auto add = [&out](const std::string& key, const std::string& value) {
    if (out.back() != ':') out += ',';
    out += key + "=" + value;
  };
  switch (kind) {
    case FaultKind::kDrop:
    case FaultKind::kDuplicate:
      add("p", fmt(p));
      if (level != NetLevel::kAll) add("level", to_string(level));
      break;
    case FaultKind::kReorder:
      add("p", fmt(p));
      add("delay", fmt(delay) + "s");
      if (level != NetLevel::kAll) add("level", to_string(level));
      break;
    case FaultKind::kBurst:
      add("period", fmt(period) + "s");
      add("duration", fmt(duration) + "s");
      add("delay", fmt(delay) + "s");
      if (phase != 0.0) add("phase", fmt(phase) + "s");
      if (level != NetLevel::kAll) add("level", to_string(level));
      break;
    case FaultKind::kStraggler:
      add("rank", std::to_string(rank));
      add("factor", fmt(factor));
      break;
    case FaultKind::kClockStep:
      add("rank", std::to_string(rank));
      add("at", fmt(at) + "s");
      add("step", fmt(step) + "s");
      break;
    case FaultKind::kFreqJump:
      add("rank", std::to_string(rank));
      add("at", fmt(at) + "s");
      add("ppm", fmt(ppm));
      break;
    case FaultKind::kPause:
      add("rank", std::to_string(rank));
      add("at", fmt(at) + "s");
      add("duration", fmt(duration) + "s");
      break;
    case FaultKind::kCrash:
    case FaultKind::kLeave:
    case FaultKind::kJoin:
    case FaultKind::kRejoin:
      add("rank", std::to_string(rank));
      add("at", fmt(at) + "s");
      break;
    case FaultKind::kCrashLink:
      add("rank", std::to_string(rank));
      add("peer", std::to_string(peer));
      add("at", fmt(at) + "s");
      break;
  }
  return out;
}

FaultSpec FaultPlan::parse_spec(const std::string& spec) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos || colon == 0) {
    bad_spec(spec, "expected kind:key=value[,key=value...]");
  }
  FaultSpec out;
  out.kind = parse_kind(spec, spec.substr(0, colon));

  std::map<std::string, std::string> kv;
  std::size_t begin = colon + 1;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(begin, end - begin);
    const auto eq = item.find('=');
    if (item.empty() || eq == std::string::npos || eq == 0 || eq + 1 == item.size()) {
      bad_spec(spec, "expected key=value, got '" + item + "'");
    }
    const std::string key = item.substr(0, eq);
    if (!kv.emplace(key, item.substr(eq + 1)).second) {
      bad_spec(spec, "duplicate key '" + key + "'");
    }
    begin = end + 1;
  }

  std::set<std::string> allowed;
  const auto want = [&](const char* key) -> bool {
    allowed.insert(key);
    return kv.count(key) > 0;
  };
  const auto require = [&](const char* key) -> std::string {
    allowed.insert(key);
    const auto it = kv.find(key);
    if (it == kv.end()) bad_spec(spec, std::string("missing required key '") + key + "'");
    return it->second;
  };

  switch (out.kind) {
    case FaultKind::kDrop:
    case FaultKind::kDuplicate:
      out.p = parse_value(spec, "p", require("p"), false);
      if (want("level")) out.level = parse_level(spec, kv["level"]);
      if (out.p < 0.0 || out.p > 1.0) bad_spec(spec, "p must be in [0, 1]");
      break;
    case FaultKind::kReorder:
      out.p = parse_value(spec, "p", require("p"), false);
      out.delay = parse_value(spec, "delay", require("delay"), true);
      if (want("level")) out.level = parse_level(spec, kv["level"]);
      if (out.p < 0.0 || out.p > 1.0) bad_spec(spec, "p must be in [0, 1]");
      if (out.delay <= 0.0) bad_spec(spec, "delay must be > 0");
      break;
    case FaultKind::kBurst:
      out.period = parse_value(spec, "period", require("period"), true);
      out.duration = parse_value(spec, "duration", require("duration"), true);
      out.delay = parse_value(spec, "delay", require("delay"), true);
      if (want("phase")) out.phase = parse_value(spec, "phase", kv["phase"], true);
      if (want("level")) out.level = parse_level(spec, kv["level"]);
      if (out.period <= 0.0) bad_spec(spec, "period must be > 0");
      if (out.duration <= 0.0 || out.duration > out.period) {
        bad_spec(spec, "duration must be in (0, period]");
      }
      if (out.delay <= 0.0) bad_spec(spec, "delay must be > 0");
      if (out.phase < 0.0) bad_spec(spec, "phase must be >= 0");
      break;
    case FaultKind::kStraggler:
      out.rank = parse_rank(spec, require("rank"));
      out.factor = parse_value(spec, "factor", require("factor"), false);
      if (out.factor < 1.0) bad_spec(spec, "factor must be >= 1");
      break;
    case FaultKind::kClockStep:
      out.rank = parse_rank(spec, require("rank"));
      out.at = parse_value(spec, "at", require("at"), true);
      out.step = parse_value(spec, "step", require("step"), true);
      if (out.at < 0.0) bad_spec(spec, "at must be >= 0");
      if (out.step == 0.0) bad_spec(spec, "step must be non-zero");
      break;
    case FaultKind::kFreqJump:
      out.rank = parse_rank(spec, require("rank"));
      out.at = parse_value(spec, "at", require("at"), true);
      out.ppm = parse_value(spec, "ppm", require("ppm"), false);
      if (out.at < 0.0) bad_spec(spec, "at must be >= 0");
      if (out.ppm == 0.0) bad_spec(spec, "ppm must be non-zero");
      break;
    case FaultKind::kPause:
      out.rank = parse_rank(spec, require("rank"));
      out.at = parse_value(spec, "at", require("at"), true);
      out.duration = parse_value(spec, "duration", require("duration"), true);
      if (out.at < 0.0) bad_spec(spec, "at must be >= 0");
      if (out.duration <= 0.0) bad_spec(spec, "duration must be > 0");
      break;
    case FaultKind::kCrash:
    case FaultKind::kLeave:
    case FaultKind::kJoin:
    case FaultKind::kRejoin:
      out.rank = parse_rank(spec, require("rank"));
      out.at = parse_value(spec, "at", require("at"), true);
      if (out.at < 0.0) bad_spec(spec, "at must be >= 0");
      break;
    case FaultKind::kCrashLink:
      out.rank = parse_rank(spec, require("rank"));
      out.peer = parse_rank(spec, require("peer"));
      out.at = parse_value(spec, "at", require("at"), true);
      if (out.peer == out.rank) bad_spec(spec, "peer must differ from rank");
      if (out.at < 0.0) bad_spec(spec, "at must be >= 0");
      break;
  }
  for (const auto& [key, value] : kv) {
    (void)value;
    if (!allowed.count(key)) {
      bad_spec(spec, "unknown key '" + key + "' for kind '" + to_string(out.kind) + "'");
    }
  }
  return out;
}

std::string FaultPlan::describe() const {
  if (specs_.empty()) return "(none)";
  std::string out;
  for (const FaultSpec& s : specs_) {
    if (!out.empty()) out += ' ';
    out += s.describe();
  }
  return out;
}

}  // namespace hcs::fault
