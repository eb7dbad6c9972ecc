// The lexer of the structural Verilog reader (verilog_reader.cpp).
//
// Tokens are views into the source.  One table maps a byte to what it
// starts, so a token, or a gap of whitespace, comments and directives, is
// dispatched with one lookup; the parser's punctuation checks compare the
// byte after a gap and build a token only when it is something else.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "netlist/verilog.h"
#include "netlist/verilog_chars.h"

namespace desync::netlist::verilog_lexer {

namespace chars = verilog_chars;

enum class TokKind : std::uint8_t {
  kEof,
  kIdent,    // plain or escaped identifier (text holds the raw name)
  kNumber,   // sized or unsized constant (text holds full literal)
  kPunct,    // single-char punctuation, kind in `punct`
};

/// What a byte starts where the lexer stands between tokens.  One lookup
/// dispatches every token and every byte of the gaps between them.
enum class Lead : std::uint8_t {
  kBad,
  kEnd,        // past the last byte (no byte maps to it)
  kSpace,
  kNewline,
  kSlash,      // a comment, or an unexpected '/'
  kDirective,  // `timescale etc., skipped to the end of the line
  kIdent,
  kEscaped,
  kNumber,
  kPunct,
};

constexpr std::array<Lead, 256> kLead = [] {
  std::array<Lead, 256> t{};
  for (int c = 0; c < 256; ++c) {
    const char ch = static_cast<char>(c);
    if (chars::is(ch, chars::kSpace)) t[c] = Lead::kSpace;
    if (chars::is(ch, chars::kIdentStart)) t[c] = Lead::kIdent;
    if (chars::is(ch, chars::kDigit)) t[c] = Lead::kNumber;
    if (chars::is(ch, chars::kPunct)) t[c] = Lead::kPunct;
  }
  t['\n'] = Lead::kNewline;
  t['/'] = Lead::kSlash;
  t['`'] = Lead::kDirective;
  t['\\'] = Lead::kEscaped;
  t['\''] = Lead::kNumber;
  return t;
}();

/// Keyword an identifier spells.  Escaped identifiers are classified too,
/// so `\wire ` reads as the keyword, and every keyword is still accepted
/// where the grammar takes a plain name.  Only asked where a module item,
/// a port or a module starts.
enum class Kw : std::uint8_t {
  kNone,
  kModule,
  kEndmodule,
  kInput,
  kOutput,
  kInout,
  kWire,
  kTri,
  kReg,
  kSupply0,
  kSupply1,
  kAssign,
};

inline Kw keyword(std::string_view s) {
  static constexpr std::array<std::pair<std::string_view, Kw>, 11> kWords{{
      {"module", Kw::kModule},
      {"endmodule", Kw::kEndmodule},
      {"input", Kw::kInput},
      {"output", Kw::kOutput},
      {"inout", Kw::kInout},
      {"wire", Kw::kWire},
      {"tri", Kw::kTri},
      {"reg", Kw::kReg},
      {"supply0", Kw::kSupply0},
      {"supply1", Kw::kSupply1},
      {"assign", Kw::kAssign},
  }};
  for (const auto& [word, kw] : kWords) {
    if (word == s) return kw;
  }
  return Kw::kNone;
}

/// A token is a view into the source, small enough to pass in registers;
/// the lexer holds one of lookahead.
struct Token {
  const char* begin = nullptr;
  std::uint32_t size = 0;
  TokKind kind = TokKind::kEof;
  char punct = 0;
  bool escaped = false;  // identifier came from a \escaped form

  [[nodiscard]] std::string_view text() const { return {begin, size}; }
};

class Lexer {
 public:
  explicit Lexer(std::string_view src)
      : p_(src.data()), end_(src.data() + src.size()) {}

  const Token& peek() {
    if (!have_) {
      cur_ = lex();
      have_ = true;
    }
    return cur_;
  }

  Token next() {
    if (!have_) return lex();
    have_ = false;
    return cur_;
  }

  /// True when the next token is punctuation `c`.  Looks at the byte the
  /// gap ends at; a token that is not `c` is lexed (and a bad byte
  /// reported) once something consumes it.
  bool peekPunct(char c) {
    if (have_) return cur_.kind == TokKind::kPunct && cur_.punct == c;
    return skipGap() == Lead::kPunct && *p_ == c;
  }

  /// Consumes punctuation `c` when it comes next; returns whether it did.
  bool acceptPunct(char c) {
    if (!peekPunct(c)) return false;
    if (have_) {
      have_ = false;
    } else {
      ++p_;
    }
    return true;
  }

  /// Line of the last token lexed (the lookahead, once peeked).
  [[nodiscard]] int line() const { return line_; }

  /// The source from the next byte to lex (past the lookahead, if any).
  [[nodiscard]] std::string_view rest() const {
    return {p_, static_cast<std::size_t>(end_ - p_)};
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw VerilogError("verilog:" + std::to_string(line_) + ": " + msg);
  }

  [[nodiscard]] const char* endOfLine(const char* p) const {
    const void* nl = std::memchr(p, '\n', static_cast<std::size_t>(end_ - p));
    return nl != nullptr ? static_cast<const char*>(nl) : end_;
  }

  /// Skips the comment at p (a '/'); any other '/' is unexpected.
  const char* skipComment(const char* p) {
    if (end_ - p >= 2 && p[1] == '/') return endOfLine(p);
    if (end_ - p < 2 || p[1] != '*') fail("unexpected character '/'");
    p += 2;
    while (end_ - p >= 2 && !(p[0] == '*' && p[1] == '/')) {
      line_ += *p == '\n' ? 1 : 0;
      ++p;
    }
    if (end_ - p < 2) fail("unterminated block comment");
    return p + 2;
  }

  /// Skips whitespace, comments and directives; returns what the byte at
  /// p_ starts.
  Lead skipGap() {
    const char* p = p_;
    for (;; ++p) {
      if (p == end_) {
        p_ = p;
        return Lead::kEnd;
      }
      const Lead lead = kLead[static_cast<unsigned char>(*p)];
      if (lead == Lead::kSpace) continue;
      if (lead == Lead::kNewline) {
        ++line_;
      } else if (lead == Lead::kSlash) {
        p = skipComment(p) - 1;
      } else if (lead == Lead::kDirective) {
        p = endOfLine(p) - 1;
      } else {
        p_ = p;
        return lead;
      }
    }
  }

  /// The token [start, p), lexing on from p.
  Token token(const char* start, const char* p, TokKind kind) {
    p_ = p;
    return Token{start, static_cast<std::uint32_t>(p - start), kind};
  }

  Token lex() {
    const Lead lead = skipGap();
    const char* const start = p_;
    const char* p = start;
    if (lead == Lead::kPunct) {
      Token t = token(start, p + 1, TokKind::kPunct);
      t.punct = *start;
      return t;
    }
    if (lead == Lead::kIdent) {
      while (++p < end_ && chars::is(*p, chars::kIdentCont)) {
      }
      return token(start, p, TokKind::kIdent);
    }
    if (lead == Lead::kNumber) {
      // [size]'[base]digits or plain decimal.
      while (p < end_ && chars::is(*p, chars::kDigit)) ++p;
      if (p < end_ && *p == '\'') {
        ++p;
        if (p < end_) ++p;  // base char
        while (p < end_ && (chars::is(*p, chars::kAlnum) || *p == '_')) ++p;
      }
      return token(start, p, TokKind::kNumber);
    }
    if (lead == Lead::kEscaped) {
      // Up to the next whitespace, backslash dropped.
      while (++p < end_ && !chars::is(*p, chars::kSpace)) {
      }
      Token t = token(start + 1, p, TokKind::kIdent);
      t.escaped = true;
      return t;
    }
    if (lead == Lead::kEnd) return token(p, p, TokKind::kEof);
    fail(std::string("unexpected character '") + *p + "'");
  }

  const char* p_;  // next byte to lex
  const char* end_;
  int line_ = 1;
  Token cur_;
  bool have_ = false;
};

}  // namespace desync::netlist::verilog_lexer
