#include "prolog/lexer.h"

#include <cctype>

namespace rapwam {

namespace {
bool is_symbol_char(char c) {
  static const std::string sym = "+-*/\\^<>=~:.?@#&$";
  return sym.find(c) != std::string::npos;
}
bool is_alnum_(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }
}  // namespace

Lexer::Lexer(std::string_view src) : src_(src) {}

char Lexer::peek(int ahead) const {
  std::size_t p = pos_ + static_cast<std::size_t>(ahead);
  return p < src_.size() ? src_[p] : '\0';
}

char Lexer::advance() {
  char c = src_[pos_++];
  if (c == '\n') {
    ++line_;
    col_ = 1;
  } else {
    ++col_;
  }
  return c;
}

void Lexer::err(const std::string& msg) const {
  fail("syntax error at line " + std::to_string(line_) + ":" + std::to_string(col_) +
       ": " + msg);
}

void Lexer::skip_layout() {
  for (;;) {
    while (!eof() && std::isspace(static_cast<unsigned char>(peek()))) advance();
    if (peek() == '%') {
      while (!eof() && peek() != '\n') advance();
      continue;
    }
    if (peek() == '/' && peek(1) == '*') {
      advance();
      advance();
      while (!eof() && !(peek() == '*' && peek(1) == '/')) advance();
      if (eof()) err("unterminated block comment");
      advance();
      advance();
      continue;
    }
    break;
  }
}

std::vector<Token> Lexer::all() {
  std::vector<Token> out;
  for (;;) {
    Token t = next();
    bool is_eof = t.kind == TokKind::Eof;
    out.push_back(std::move(t));
    if (is_eof) break;
  }
  return out;
}

Token Lexer::next() {
  skip_layout();
  Token t;
  t.line = line_;
  t.col = col_;
  if (eof()) {
    t.kind = TokKind::Eof;
    return t;
  }
  char c = peek();

  // Period: end of clause if followed by layout or EOF; else symbolic atom.
  if (c == '.') {
    char n = peek(1);
    if (n == '\0' || std::isspace(static_cast<unsigned char>(n)) || n == '%') {
      advance();
      t.kind = TokKind::End;
      t.text = ".";
      return t;
    }
  }

  if (std::isdigit(static_cast<unsigned char>(c))) {
    i64 v = 0;
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
      i64 d = peek() - '0';
      if (v > (kIntMax - d) / 10)
        err("integer literal out of range (above " + std::to_string(kIntMax) + ")");
      v = v * 10 + d;
      advance();
    }
    if (!eof() && (is_alnum_(peek()))) err("bad number suffix");
    t.kind = TokKind::Int;
    t.value = v;
    return t;
  }

  if (std::isupper(static_cast<unsigned char>(c)) || c == '_') {
    std::string s;
    while (!eof() && is_alnum_(peek())) s += advance();
    t.kind = TokKind::Var;
    t.text = std::move(s);
    return t;
  }

  if (std::islower(static_cast<unsigned char>(c))) {
    std::string s;
    while (!eof() && is_alnum_(peek())) s += advance();
    t.kind = TokKind::Atom;
    t.text = std::move(s);
    t.functor_paren = (peek() == '(');
    return t;
  }

  if (c == '\'') {
    advance();
    std::string s;
    for (;;) {
      if (eof()) err("unterminated quoted atom");
      char q = advance();
      if (q == '\\' && !eof()) {
        char e = advance();
        switch (e) {
          case 'n': s += '\n'; break;
          case 't': s += '\t'; break;
          case '\\': s += '\\'; break;
          case '\'': s += '\''; break;
          default: err("unknown escape in quoted atom");
        }
        continue;
      }
      if (q == '\'') {
        if (peek() == '\'') {  // doubled quote
          advance();
          s += '\'';
          continue;
        }
        break;
      }
      s += q;
    }
    t.kind = TokKind::Atom;
    t.text = std::move(s);
    t.functor_paren = (peek() == '(');
    return t;
  }

  // Punctuation.
  if (c == '(' || c == ')' || c == '[' || c == ']' || c == '{' || c == '}' ||
      c == ',' || c == '|') {
    // `||`? not used; '|' alone.
    advance();
    // "[]" and "{}" as atoms.
    if (c == '[' && peek() == ']') {
      advance();
      t.kind = TokKind::Atom;
      t.text = "[]";
      t.functor_paren = (peek() == '(');
      return t;
    }
    if (c == '{' && peek() == '}') {
      advance();
      t.kind = TokKind::Atom;
      t.text = "{}";
      return t;
    }
    t.kind = TokKind::Punct;
    t.text = std::string(1, c);
    return t;
  }

  if (c == '!' || c == ';') {
    advance();
    t.kind = TokKind::Atom;
    t.text = std::string(1, c);
    return t;
  }

  if (is_symbol_char(c)) {
    std::string s;
    while (!eof() && is_symbol_char(peek())) s += advance();
    t.kind = TokKind::Atom;
    t.text = std::move(s);
    t.functor_paren = (peek() == '(');
    return t;
  }

  err(std::string("unexpected character '") + c + "'");
}

}  // namespace rapwam
