// Lightweight C++ lexer for hcs-lint.
//
// This is not a compiler front end: it produces a flat token stream that is
// exact about the things static checks trip over — comments, string/char
// literals (including raw strings), preprocessor directives and multi-char
// operators — and deliberately ignores everything a real parser would need
// (no preprocessing, no templates, no name lookup).  The rules in rules.cpp
// work on this stream with brace/paren-aware scanning.
#pragma once

#include <string>
#include <vector>

namespace hcs::lint {

enum class TokKind {
  kIdent,   // identifiers and keywords (rules match on text)
  kNumber,  // any numeric literal, suffixes included
  kString,  // string literal (escaped or raw), text excludes quotes
  kChar,    // character literal
  kPunct,   // operator or punctuator, longest-munch (e.g. "&&", "->", "::")
  kEof,
};

struct Token {
  TokKind kind = TokKind::kEof;
  std::string text;
  int line = 0;  // 1-based
  int col = 0;   // 1-based
};

struct Comment {
  std::string text;  // without the // or /* */ markers, trimmed
  int line = 0;      // first line of the comment
  int end_line = 0;  // last line (== line for // comments)
};

// A lexed translation unit.  `tokens` excludes comments and preprocessor
// directives; comments are kept separately (they carry the suppression
// annotations).
struct LexedFile {
  std::string path;
  std::vector<Token> tokens;
  std::vector<Comment> comments;
};

LexedFile lex(std::string path, const std::string& source);

}  // namespace hcs::lint
