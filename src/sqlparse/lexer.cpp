#include "sqlparse/lexer.h"

#include <atomic>

#include "sqlparse/critical.h"
#include "sqlparse/keywords.h"
#include "util/strings.h"

namespace joza::sql {

namespace {

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) {}

  std::vector<Token> Run() {
    std::vector<Token> out;
    while (pos_ < src_.size()) {
      SkipWhitespace();
      if (pos_ >= src_.size()) break;
      out.push_back(Next());
    }
    return out;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < src_.size() && IsAsciiSpace(src_[pos_])) ++pos_;
  }

  char Peek(std::size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }

  Token Make(TokenKind kind, std::size_t begin) {
    Token t;
    t.kind = kind;
    t.span = {begin, pos_};
    t.text = src_.substr(begin, pos_ - begin);
    return t;
  }

  Token Next() {
    const std::size_t begin = pos_;
    const char c = src_[pos_];

    // Comments. Per the paper, each comment is a single critical token and
    // the span includes the comment markers.
    if (c == '-' && Peek(1) == '-') return LexLineComment(begin);
    if (c == '#') return LexLineComment(begin);
    if (c == '/' && Peek(1) == '*') return LexBlockComment(begin);

    if (c == '\'' || c == '"') return LexString(begin, c);
    if (c == '`') return LexQuotedIdentifier(begin);
    if (IsAsciiDigit(c) || (c == '.' && IsAsciiDigit(Peek(1)))) {
      return LexNumber(begin);
    }
    if (IsAsciiAlpha(c) || c == '_') return LexWord(begin);
    if (c == '?') {
      ++pos_;
      return Make(TokenKind::kPlaceholder, begin);
    }
    if (c == ':' && (IsAsciiAlpha(Peek(1)) || Peek(1) == '_')) {
      ++pos_;
      while (pos_ < src_.size() &&
             (IsAsciiAlnum(src_[pos_]) || src_[pos_] == '_')) {
        ++pos_;
      }
      return Make(TokenKind::kPlaceholder, begin);
    }
    return LexOperatorOrPunct(begin);
  }

  Token LexLineComment(std::size_t begin) {
    while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
    return Make(TokenKind::kComment, begin);
  }

  Token LexBlockComment(std::size_t begin) {
    pos_ += 2;  // consume "/*"
    while (pos_ + 1 < src_.size()) {
      if (src_[pos_] == '*' && src_[pos_ + 1] == '/') {
        pos_ += 2;
        return Make(TokenKind::kComment, begin);
      }
      ++pos_;
    }
    pos_ = src_.size();  // unterminated: treat rest as comment, flag error
    return Make(TokenKind::kError, begin);
  }

  Token LexString(std::size_t begin, char quote) {
    ++pos_;  // opening quote
    while (pos_ < src_.size()) {
      char c = src_[pos_];
      if (c == '\\' && pos_ + 1 < src_.size()) {
        pos_ += 2;  // backslash escape
        continue;
      }
      if (c == quote) {
        if (Peek(1) == quote) {  // doubled-quote escape ('' or "")
          pos_ += 2;
          continue;
        }
        ++pos_;  // closing quote
        return Make(TokenKind::kString, begin);
      }
      ++pos_;
    }
    return Make(TokenKind::kError, begin);  // unterminated string
  }

  Token LexQuotedIdentifier(std::size_t begin) {
    ++pos_;  // opening backtick
    while (pos_ < src_.size() && src_[pos_] != '`') ++pos_;
    if (pos_ < src_.size()) {
      ++pos_;
      return Make(TokenKind::kIdentifier, begin);
    }
    return Make(TokenKind::kError, begin);
  }

  Token LexNumber(std::size_t begin) {
    // Hex literal 0x...
    if (src_[pos_] == '0' && (Peek(1) == 'x' || Peek(1) == 'X')) {
      pos_ += 2;
      while (pos_ < src_.size() && (IsAsciiAlnum(src_[pos_]))) ++pos_;
      return Make(TokenKind::kNumber, begin);
    }
    while (pos_ < src_.size() && IsAsciiDigit(src_[pos_])) ++pos_;
    if (pos_ < src_.size() && src_[pos_] == '.') {
      ++pos_;
      while (pos_ < src_.size() && IsAsciiDigit(src_[pos_])) ++pos_;
    }
    if (pos_ < src_.size() && (src_[pos_] == 'e' || src_[pos_] == 'E')) {
      std::size_t mark = pos_;
      ++pos_;
      if (pos_ < src_.size() && (src_[pos_] == '+' || src_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ < src_.size() && IsAsciiDigit(src_[pos_])) {
        while (pos_ < src_.size() && IsAsciiDigit(src_[pos_])) ++pos_;
      } else {
        pos_ = mark;  // not an exponent after all
      }
    }
    return Make(TokenKind::kNumber, begin);
  }

  Token LexWord(std::size_t begin) {
    while (pos_ < src_.size() &&
           (IsAsciiAlnum(src_[pos_]) || src_[pos_] == '_')) {
      ++pos_;
    }
    std::string_view word = src_.substr(begin, pos_ - begin);
    if (IsKeyword(word)) return Make(TokenKind::kKeyword, begin);
    // A builtin function name is critical only when used as a call — i.e.
    // followed (possibly after whitespace) by '('. Bare words like "char"
    // used as column names stay identifiers.
    if (IsBuiltinFunction(word)) {
      std::size_t look = pos_;
      while (look < src_.size() && IsAsciiSpace(src_[look])) ++look;
      if (look < src_.size() && src_[look] == '(') {
        return Make(TokenKind::kFunction, begin);
      }
    }
    return Make(TokenKind::kIdentifier, begin);
  }

  Token LexOperatorOrPunct(std::size_t begin) {
    const char c = src_[pos_];
    const char n = Peek(1);
    // Two-character operators first.
    if ((c == '<' && (n == '=' || n == '>')) || (c == '>' && n == '=') ||
        (c == '!' && n == '=') || (c == '|' && n == '|') ||
        (c == '&' && n == '&') || (c == ':' && n == '=')) {
      pos_ += 2;
      return Make(TokenKind::kOperator, begin);
    }
    ++pos_;
    switch (c) {
      case '=': case '<': case '>': case '+': case '-': case '*':
      case '/': case '%': case '!': case '|': case '&': case '^':
      case '~':
        return Make(TokenKind::kOperator, begin);
      case ',': case '(': case ')': case '.': case ';': case '@':
        return Make(TokenKind::kPunct, begin);
      default:
        return Make(TokenKind::kError, begin);
    }
  }

  std::string_view src_;
  std::size_t pos_ = 0;
};

// Test-only accounting: the single-pass analysis contract ("at most one
// Lex per analyzed query") is asserted by counting calls. A relaxed atomic
// increment costs nothing measurable next to tokenization itself.
std::atomic<std::uint64_t> g_lex_calls{0};

}  // namespace

std::uint64_t LexCallsForTest() {
  return g_lex_calls.load(std::memory_order_relaxed);
}

std::vector<Token> Lex(std::string_view query) {
  g_lex_calls.fetch_add(1, std::memory_order_relaxed);
  return Lexer(query).Run();
}

std::vector<Token> CriticalTokens(const std::vector<Token>& tokens) {
  return CriticalTokens(tokens, /*strict_tokens=*/false);
}

const char* TokenKindName(TokenKind k) {
  switch (k) {
    case TokenKind::kKeyword: return "keyword";
    case TokenKind::kFunction: return "function";
    case TokenKind::kIdentifier: return "identifier";
    case TokenKind::kNumber: return "number";
    case TokenKind::kString: return "string";
    case TokenKind::kOperator: return "operator";
    case TokenKind::kPunct: return "punct";
    case TokenKind::kComment: return "comment";
    case TokenKind::kPlaceholder: return "placeholder";
    case TokenKind::kEndOfInput: return "eof";
    case TokenKind::kError: return "error";
  }
  return "unknown";
}

}  // namespace joza::sql
