#include "lint/lexer.hpp"

#include <array>
#include <cctype>
#include <cstddef>
#include <string_view>
#include <utility>

namespace hcs::lint {
namespace {

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }
bool digit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

// Multi-char punctuators, longest first within each first-char group.
constexpr std::array<std::string_view, 22> kPuncts = {
    "<<=", ">>=", "<=>", "->*", "...", "::", "->", "<<", ">>", "<=", ">=",
    "==",  "!=",  "&&",  "||",  "++",  "--", "+=", "-=", "*=", "/=", "%=",
};

std::string trim(std::string s) {
  std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

class Lexer {
 public:
  Lexer(std::string path, const std::string& src) : src_(src) {
    out_.path = std::move(path);
  }

  LexedFile run() {
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == '\n') {
        ++line_;
        col_ = 1;
        ++pos_;
        at_line_start_ = true;
        continue;
      }
      if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
        advance(1);
        continue;
      }
      if (c == '\\' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '\n') {
        advance(1);  // line continuation outside a directive: just glue
        continue;
      }
      if (c == '/' && peek(1) == '/') {
        line_comment();
        continue;
      }
      if (c == '/' && peek(1) == '*') {
        block_comment();
        continue;
      }
      if (at_line_start_ && c == '#') {
        directive();
        continue;
      }
      at_line_start_ = false;
      if (ident_start(c)) {
        identifier_or_raw_string();
        continue;
      }
      if (digit(c) || (c == '.' && digit(peek(1)))) {
        number();
        continue;
      }
      if (c == '"') {
        string_literal();
        continue;
      }
      if (c == '\'') {
        char_literal();
        continue;
      }
      punct();
    }
    out_.tokens.push_back(Token{TokKind::kEof, "", line_, col_});
    return std::move(out_);
  }

 private:
  char peek(std::size_t ahead) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }

  // Advances over `n` chars that are known to contain no newline.
  void advance(std::size_t n) {
    pos_ += n;
    col_ += static_cast<int>(n);
  }

  void advance_tracking(std::size_t n) {  // may cross newlines
    for (std::size_t i = 0; i < n && pos_ < src_.size(); ++i) {
      if (src_[pos_] == '\n') {
        ++line_;
        col_ = 1;
      } else {
        ++col_;
      }
      ++pos_;
    }
  }

  void emit(TokKind kind, std::string text, int line, int col) {
    out_.tokens.push_back(Token{kind, std::move(text), line, col});
  }

  void line_comment() {
    const int start_line = line_;
    // Phase-2 line splicing happens before comment recognition, so a
    // backslash (optionally followed by a \r) at the end of the line extends
    // the comment onto the next physical line.
    std::size_t end = pos_;
    while (true) {
      end = src_.find('\n', end);
      if (end == std::string::npos) {
        end = src_.size();
        break;
      }
      std::size_t b = end;
      if (b > pos_ && src_[b - 1] == '\r') --b;
      if (b > pos_ && src_[b - 1] == '\\') {
        ++end;  // spliced: keep scanning on the next line
        continue;
      }
      break;
    }
    std::string body = trim(src_.substr(pos_ + 2, end - pos_ - 2));
    advance_tracking(end - pos_);
    out_.comments.push_back(Comment{std::move(body), start_line, line_});
  }

  void block_comment() {
    const int start_line = line_;
    std::size_t end = src_.find("*/", pos_ + 2);
    const std::size_t stop = end == std::string::npos ? src_.size() : end + 2;
    const std::size_t body_end = end == std::string::npos ? src_.size() : end;
    std::string body = trim(src_.substr(pos_ + 2, body_end - pos_ - 2));
    advance_tracking(stop - pos_);
    out_.comments.push_back(Comment{std::move(body), start_line, line_});
  }

  // Preprocessor directive: consumed wholesale (honouring \-continuations);
  // the token stream never sees it.  Comments inside are still recorded.
  void directive() {
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == '\n') break;
      if (c == '\\' && (peek(1) == '\n' || (peek(1) == '\r' && peek(2) == '\n'))) {
        advance_tracking(peek(1) == '\r' ? 3 : 2);
        continue;
      }
      if (c == '/' && peek(1) == '/') {
        line_comment();
        break;
      }
      if (c == '/' && peek(1) == '*') {
        block_comment();
        continue;
      }
      if (c == '"') {
        string_literal();
        out_.tokens.pop_back();  // directive content stays out of the stream
        continue;
      }
      advance(1);
    }
    at_line_start_ = true;  // next line may be another directive
  }

  void identifier_or_raw_string() {
    const int l = line_, c = col_;
    std::size_t end = pos_;
    while (end < src_.size() && ident_char(src_[end])) ++end;
    std::string text = src_.substr(pos_, end - pos_);
    // Raw-string prefix: R"..., u8R"..., LR"..., etc.
    if (end < src_.size() && src_[end] == '"' && !text.empty() && text.back() == 'R' &&
        (text == "R" || text == "u8R" || text == "uR" || text == "UR" || text == "LR")) {
      advance(end - pos_);
      raw_string(l, c);
      return;
    }
    advance(end - pos_);
    emit(TokKind::kIdent, std::move(text), l, c);
  }

  void raw_string(int l, int c) {
    // At a '"' following an R prefix: R"delim( ... )delim"
    std::size_t p = pos_ + 1;
    std::string delim;
    while (p < src_.size() && src_[p] != '(') delim.push_back(src_[p++]);
    if (p >= src_.size()) {
      // Unterminated at EOF with no '(' — emit what's there instead of
      // reading past the buffer.
      std::string body = src_.substr(pos_ + 1);
      advance_tracking(src_.size() - pos_);
      emit(TokKind::kString, std::move(body), l, c);
      return;
    }
    const std::string closer = ")" + delim + "\"";
    std::size_t end = src_.find(closer, p);
    if (end == std::string::npos) end = src_.size();
    const std::size_t body_begin = p + 1;
    std::string body = src_.substr(body_begin, end - body_begin);
    const std::size_t stop = end == src_.size() ? end : end + closer.size();
    advance_tracking(stop - pos_);
    emit(TokKind::kString, std::move(body), l, c);
  }

  void string_literal() {
    const int l = line_, c = col_;
    std::size_t p = pos_ + 1;
    std::string body;
    while (p < src_.size() && src_[p] != '"') {
      if (src_[p] == '\\' && p + 1 < src_.size()) {
        body.push_back(src_[p]);
        body.push_back(src_[p + 1]);
        p += 2;
        continue;
      }
      if (src_[p] == '\n') break;  // unterminated: stop at EOL
      body.push_back(src_[p++]);
    }
    const std::size_t stop = p < src_.size() && src_[p] == '"' ? p + 1 : p;
    advance_tracking(stop - pos_);
    emit(TokKind::kString, std::move(body), l, c);
  }

  void char_literal() {
    const int l = line_, c = col_;
    std::size_t p = pos_ + 1;
    std::string body;
    while (p < src_.size() && src_[p] != '\'') {
      if (src_[p] == '\\' && p + 1 < src_.size()) {
        body.push_back(src_[p]);
        body.push_back(src_[p + 1]);
        p += 2;
        continue;
      }
      if (src_[p] == '\n') break;
      body.push_back(src_[p++]);
    }
    const std::size_t stop = p < src_.size() && src_[p] == '\'' ? p + 1 : p;
    advance_tracking(stop - pos_);
    emit(TokKind::kChar, std::move(body), l, c);
  }

  void number() {
    const int l = line_, c = col_;
    std::size_t end = pos_;
    while (end < src_.size()) {
      const char ch = src_[end];
      if (ident_char(ch) || ch == '.' || ch == '\'') {
        ++end;
        continue;
      }
      if ((ch == '+' || ch == '-') && end > pos_) {
        const char prev = src_[end - 1];
        if (prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P') {
          ++end;
          continue;
        }
      }
      break;
    }
    std::string text = src_.substr(pos_, end - pos_);
    advance(end - pos_);
    emit(TokKind::kNumber, std::move(text), l, c);
  }

  void punct() {
    const int l = line_, c = col_;
    const std::string_view rest(src_.data() + pos_, src_.size() - pos_);
    for (std::string_view p : kPuncts) {
      if (rest.substr(0, p.size()) == p) {
        advance(p.size());
        emit(TokKind::kPunct, std::string(p), l, c);
        return;
      }
    }
    advance(1);
    emit(TokKind::kPunct, std::string(1, rest[0]), l, c);
  }

  const std::string& src_;
  LexedFile out_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
  bool at_line_start_ = true;
};

}  // namespace

LexedFile lex(std::string path, const std::string& source) {
  return Lexer(std::move(path), source).run();
}

}  // namespace hcs::lint
