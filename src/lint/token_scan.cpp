#include "lint/token_scan.hpp"

#include <algorithm>
#include <cctype>

namespace hcs::lint::scan {

bool is(const Token& t, const char* text) { return t.text == text; }
bool is_ident(const Token& t) { return t.kind == TokKind::kIdent; }
bool is_ident(const Token& t, const char* text) { return is_ident(t) && t.text == text; }

bool opens(const Token& t) { return is(t, "(") || is(t, "[") || is(t, "{"); }
bool closes(const Token& t) { return is(t, ")") || is(t, "]") || is(t, "}"); }

bool is_assign_op(const Token& t) {
  return t.kind == TokKind::kPunct &&
         (t.text == "=" || t.text == "+=" || t.text == "-=" || t.text == "*=" ||
          t.text == "/=" || t.text == "%=" || t.text == "&=" || t.text == "|=" ||
          t.text == "^=" || t.text == "<<=" || t.text == ">>=");
}

bool is_exit_kw(const Token& t) {
  return is_ident(t, "return") || is_ident(t, "co_return") || is_ident(t, "break") ||
         is_ident(t, "continue") || is_ident(t, "throw");
}

std::size_t match_forward(const Toks& t, std::size_t i) {
  int depth = 0;
  for (std::size_t k = i; k < t.size(); ++k) {
    if (opens(t[k])) ++depth;
    if (closes(t[k]) && --depth == 0) return k;
  }
  return t.size();
}

std::size_t match_backward(const Toks& t, std::size_t i) {
  int depth = 0;
  for (std::size_t k = i + 1; k-- > 0;) {
    if (closes(t[k])) ++depth;
    if (opens(t[k]) && --depth == 0) return k;
  }
  return 0;
}

std::size_t stmt_end(const Toks& t, std::size_t b) {
  if (b >= t.size()) return t.size();
  if (is(t[b], "{")) return std::min(match_forward(t, b) + 1, t.size());
  if (is_ident(t[b], "if") || is_ident(t[b], "for") || is_ident(t[b], "while") ||
      is_ident(t[b], "switch")) {
    std::size_t p = b + 1;
    if (p < t.size() && is_ident(t[p], "constexpr")) ++p;  // if constexpr
    if (p >= t.size() || !is(t[p], "(")) return b + 1;
    std::size_t body = std::min(match_forward(t, p) + 1, t.size());
    std::size_t e = stmt_end(t, body);
    if (is_ident(t[b], "if") && e < t.size() && is_ident(t[e], "else")) {
      return stmt_end(t, e + 1);
    }
    return e;
  }
  if (is_ident(t[b], "do")) {
    std::size_t e = stmt_end(t, b + 1);  // body
    while (e < t.size() && !is(t[e], ";")) ++e;
    return std::min(e + 1, t.size());
  }
  int depth = 0;
  for (std::size_t k = b; k < t.size(); ++k) {
    if (opens(t[k])) ++depth;
    if (closes(t[k])) {
      if (depth == 0) return k;  // ran out of the enclosing block
      --depth;
    }
    if (depth == 0 && is(t[k], ";")) return k + 1;
  }
  return t.size();
}

CallKind call_kind(const Toks& t, std::size_t i) {
  if (i + 1 >= t.size() || !is(t[i + 1], "(")) return CallKind::kNone;
  if (i == 0) return CallKind::kNone;
  const Token& prev = t[i - 1];
  if (is(prev, ".") || is(prev, "->")) return CallKind::kMethod;
  std::size_t head = i;
  if (is(prev, "::")) {  // walk back over the qualifier chain
    std::size_t k = i;
    while (k >= 2 && is(t[k - 1], "::") && is_ident(t[k - 2])) k -= 2;
    if (k >= 1 && is(t[k - 1], "::")) --k;  // leading ::name
    head = k;
  }
  if (head == 0) return CallKind::kNone;
  const Token& before = t[head - 1];
  // A type name, template close, attribute close or `~` in front means this
  // is a declaration, definition or destructor, not a call.
  if (is_ident(before)) {
    if (is_exit_kw(before) || is_ident(before, "co_await") || is_ident(before, "co_yield") ||
        is_ident(before, "case") || is_ident(before, "else") || is_ident(before, "do")) {
      return CallKind::kFree;
    }
    return CallKind::kNone;
  }
  if (is(before, ">") || is(before, ">>") || is(before, "]") || is(before, "~") ||
      is(before, "*") || is(before, "&")) {
    return CallKind::kNone;
  }
  return CallKind::kFree;
}

bool benign_decl_token(const Token& t) {
  if (is_ident(t)) return true;  // specifiers, trailing-return type names
  return t.text == "::" || t.text == "<" || t.text == ">" || t.text == "&" || t.text == "*" ||
         t.text == "->" || t.text == "...";
}

std::vector<FuncExtent> function_extents(const Toks& t) {
  std::vector<FuncExtent> out;
  for (std::size_t j = 0; j < t.size(); ++j) {
    if (!is(t[j], "{")) continue;
    std::size_t k = j;
    bool found_paren = false;
    while (k-- > 0) {
      if (is(t[k], ")")) {
        found_paren = true;
        break;
      }
      if (!benign_decl_token(t[k])) break;
    }
    if (!found_paren) continue;
    const std::size_t open_paren = match_backward(t, k);
    if (open_paren == 0) continue;
    const Token& callee = t[open_paren - 1];
    if (is_ident(callee, "if") || is_ident(callee, "for") || is_ident(callee, "while") ||
        is_ident(callee, "switch") || is_ident(callee, "catch")) {
      continue;
    }
    FuncExtent fe;
    fe.open = j;
    fe.close = match_forward(t, j);
    fe.lambda = is(callee, "]");
    if (fe.close >= t.size()) continue;
    out.push_back(fe);
  }
  // Mark coroutines: each co_* keyword belongs to the innermost extent.
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t[i], "co_await") && !is_ident(t[i], "co_return") &&
        !is_ident(t[i], "co_yield")) {
      continue;
    }
    FuncExtent* innermost = nullptr;
    for (auto& fe : out) {
      if (fe.open < i && i < fe.close &&
          (!innermost || fe.close - fe.open < innermost->close - innermost->open)) {
        innermost = &fe;
      }
    }
    if (innermost) innermost->coroutine = true;
  }
  return out;
}

const FuncExtent* enclosing_function(const std::vector<FuncExtent>& fns, std::size_t i) {
  const FuncExtent* best = nullptr;
  for (const auto& fe : fns) {
    if (fe.open < i && i < fe.close && (!best || fe.close - fe.open < best->close - best->open)) {
      best = &fe;
    }
  }
  return best;
}

bool lambda_start(const Toks& t, std::size_t i) {
  if (!is(t[i], "[")) return false;
  if (i + 1 < t.size() && is(t[i + 1], "[")) return false;  // [[attribute]]
  if (i == 0) return true;
  const Token& prev = t[i - 1];
  if (is_ident(prev)) {
    return is_exit_kw(prev) || is_ident(prev, "co_await") || is_ident(prev, "co_yield") ||
           is_ident(prev, "case") || is_ident(prev, "else") || is_ident(prev, "do");
  }
  if (is(prev, ")") || is(prev, "]") || prev.kind == TokKind::kNumber ||
      prev.kind == TokKind::kString) {
    return false;  // subscript
  }
  return true;
}

std::set<std::string> rank_tainted_vars(const Toks& t) {
  std::set<std::string> rank_vars;
  bool changed = true;
  for (int pass = 0; pass < 5 && changed; ++pass) {
    changed = false;
    for (std::size_t i = 1; i + 1 < t.size(); ++i) {
      if (!is(t[i], "=") || !is_ident(t[i - 1])) continue;
      const std::string& lhs = t[i - 1].text;
      if (rank_vars.count(lhs)) continue;
      int depth = 0;
      for (std::size_t k = i + 1; k < t.size(); ++k) {
        if (is(t[k], ";") && depth == 0) break;
        if (opens(t[k])) {
          ++depth;
          continue;
        }
        if (closes(t[k])) {
          if (depth == 0) break;
          --depth;
          continue;
        }
        if (depth != 0 || !is_ident(t[k])) continue;
        const bool rank_call =
            (t[k].text == "rank" || t[k].text == "my_world_rank" || t[k].text == "my_index") &&
            k + 1 < t.size() && is(t[k + 1], "(");
        if (rank_call || rank_vars.count(t[k].text)) {
          rank_vars.insert(lhs);
          changed = true;
          break;
        }
      }
    }
  }
  return rank_vars;
}

bool rank_dependent_cond(const Toks& t, const std::set<std::string>& rank_vars, std::size_t b,
                         std::size_t e) {
  static const std::set<std::string> kNeutralCallees = {"peer_status", "locate", "world_rank",
                                                        "detect_time", "status", "at"};
  std::vector<bool> neutral_stack;
  for (std::size_t i = b; i < e && i < t.size(); ++i) {
    if (is(t[i], "(")) {
      const bool neutral = i > b && is_ident(t[i - 1]) && kNeutralCallees.count(t[i - 1].text);
      neutral_stack.push_back(neutral);
      continue;
    }
    if (is(t[i], ")")) {
      if (!neutral_stack.empty()) neutral_stack.pop_back();
      continue;
    }
    if (!is_ident(t[i])) continue;
    const bool in_neutral =
        std::any_of(neutral_stack.begin(), neutral_stack.end(), [](bool n) { return n; });
    if (in_neutral) continue;
    if (kNeutralCallees.count(t[i].text)) continue;  // the callee name itself
    const std::string low = lower(t[i].text);
    if (low.find("rank") != std::string::npos || low == "root" || low == "leader" ||
        low == "is_leader" || rank_vars.count(t[i].text)) {
      return true;
    }
  }
  return false;
}

const std::set<std::string>& free_collectives() {
  static const std::set<std::string> k = {"barrier",        "bcast",     "reduce",
                                          "allreduce",      "gather",    "scatter",
                                          "allgather",      "alltoall",  "reduce_scatter",
                                          "scan"};
  return k;
}

const std::set<std::string>& method_collectives() {
  static const std::set<std::string> k = {"split", "split_shared_node", "split_shared_socket"};
  return k;
}

bool is_collective_call(const Toks& t, std::size_t i) {
  const CallKind kind = call_kind(t, i);
  if (kind == CallKind::kMethod) return method_collectives().count(t[i].text) > 0;
  if (kind == CallKind::kFree) return free_collectives().count(t[i].text) > 0;
  return false;
}

std::vector<std::string> collectives_in(const Toks& t, std::size_t b, std::size_t e) {
  std::vector<std::string> names;
  for (std::size_t i = b; i < e && i < t.size(); ++i) {
    if (is_ident(t[i]) && is_collective_call(t, i)) names.push_back(t[i].text);
  }
  std::sort(names.begin(), names.end());
  return names;
}

bool has_function_exit(const Toks& t, std::size_t b, std::size_t e) {
  for (std::size_t i = b; i < e && i < t.size(); ++i) {
    if (is_ident(t[i], "return") || is_ident(t[i], "co_return")) return true;
  }
  return false;
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

}  // namespace hcs::lint::scan
