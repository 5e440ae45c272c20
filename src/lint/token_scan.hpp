// Shared token-stream scanning helpers for hcs-lint.
//
// The summary extractor (summary.cpp) and the token-walking per-file rules
// (rules.cpp) work on the same flat token stream, with the same
// brace/paren-aware heuristics: matching brackets, statement extents,
// call-site classification, function-body discovery, rank-taint data flow and
// the collective-call tables.  This header is the single home for those
// primitives.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "lint/lexer.hpp"

namespace hcs::lint::scan {

using Toks = std::vector<Token>;

bool is(const Token& t, const char* text);
bool is_ident(const Token& t);
bool is_ident(const Token& t, const char* text);
bool opens(const Token& t);
bool closes(const Token& t);
bool is_assign_op(const Token& t);
bool is_exit_kw(const Token& t);

// Matching close bracket for the open bracket at `i`; n (= one past the last
// token) when unbalanced.  match_backward is the mirror image.
std::size_t match_forward(const Toks& t, std::size_t i);
std::size_t match_backward(const Toks& t, std::size_t i);

// One past the end of the statement starting at `b`.  Handles compound
// statements and control-flow headers so a caller can treat "the then
// branch" as one span whether or not it is braced.
std::size_t stmt_end(const Toks& t, std::size_t b);

// Tokens that may sit between a declarator's ")" and its body "{" or before a
// declared name: specifiers, type names, "::", "<", ">", "&", "*", "->", "...".
bool benign_decl_token(const Token& t);

enum class CallKind { kNone, kMethod, kFree };

// Classifies the identifier at `i` (which must be followed by "(") as a
// method call, a free/qualified call, or not a call (declarations and
// definitions: the name is preceded by a type).
CallKind call_kind(const Toks& t, std::size_t i);

struct FuncExtent {
  std::size_t open = 0;   // index of the body "{"
  std::size_t close = 0;  // index of the matching "}"
  bool lambda = false;
  bool coroutine = false;  // contains co_await/co_return/co_yield directly
};

// Finds every function (and lambda) body.  Heuristic: a "{" qualifies when
// walking back over declaration-ish tokens reaches a ")" whose matching "("
// is not a control-flow header.
std::vector<FuncExtent> function_extents(const Toks& t);
const FuncExtent* enclosing_function(const std::vector<FuncExtent>& fns, std::size_t i);

// True when `[` at `i` starts a lambda introducer (not a subscript or
// attribute).
bool lambda_start(const Toks& t, std::size_t i);

// Data-flow-lite rank taint: identifiers assigned from a top-level rank()
// call (or from an already-tainted identifier at top level) are themselves
// rank-derived.
std::set<std::string> rank_tainted_vars(const Toks& t);

// True when the condition span [b, e) tests rank identity.  Identifiers that
// only feed status-style calls (peer_status(other_rank), ...) do not count.
bool rank_dependent_cond(const Toks& t, const std::set<std::string>& rank_vars, std::size_t b,
                         std::size_t e);

// The collective-call tables behind the rank-branch records.
const std::set<std::string>& free_collectives();
const std::set<std::string>& method_collectives();
bool is_collective_call(const Toks& t, std::size_t i);

// Sorted names of the collectives called in [b, e).
std::vector<std::string> collectives_in(const Toks& t, std::size_t b, std::size_t e);

// Early exits that skip the rest of the *function* within [b, e).
bool has_function_exit(const Toks& t, std::size_t b, std::size_t e);

std::string lower(std::string s);

}  // namespace hcs::lint::scan
