#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <unordered_map>

#include "netlist/verilog.h"
#include "netlist/verilog_chars.h"

namespace desync::netlist {
namespace {

namespace chars = verilog_chars;

// ------------------------------------------------------------------ Lexer

enum class TokKind : std::uint8_t {
  kEof,
  kIdent,    // plain or escaped identifier (text holds the raw name)
  kNumber,   // sized or unsized constant (text holds full literal)
  kPunct,    // single-char punctuation, kind in `punct`
};

/// Keyword an identifier spells.  Escaped identifiers are classified too,
/// so `\wire ` reads as the keyword, and every keyword is still accepted
/// where the grammar takes a plain name.
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

Kw keyword(std::string_view s) {
  // Every keyword is 3-9 lowercase letters starting with one of these.
  if (s.size() < 3 || s.size() > 9 ||
      std::string_view("aeimorstw").find(s.front()) == std::string_view::npos) {
    return Kw::kNone;
  }
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

/// A token is a view into the source; the lexer holds one of lookahead.
struct Token {
  std::string_view text;
  TokKind kind = TokKind::kEof;
  Kw kw = Kw::kNone;
  char punct = 0;
  bool escaped = false;  // identifier came from a \escaped form
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
    const Token& t = peek();
    have_ = false;
    return t;
  }

  /// Line of the last token lexed (the lookahead, once peeked).
  [[nodiscard]] int line() const { return line_; }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw VerilogError("verilog:" + std::to_string(line_) + ": " + msg);
  }

  /// True when the two bytes at p are `a` `b`.
  [[nodiscard]] bool startsWith(const char* p, char a, char b) const {
    return end_ - p >= 2 && p[0] == a && p[1] == b;
  }

  [[nodiscard]] const char* endOfLine(const char* p) const {
    const void* nl = std::memchr(p, '\n', static_cast<std::size_t>(end_ - p));
    return nl != nullptr ? static_cast<const char*>(nl) : end_;
  }

  void skipSpaceAndComments() {
    const char* p = p_;
    for (;;) {
      while (p < end_ && chars::is(*p, chars::kSpace)) {
        line_ += *p == '\n' ? 1 : 0;
        ++p;
      }
      if (startsWith(p, '/', '/')) {
        p = endOfLine(p);
        continue;
      }
      if (startsWith(p, '/', '*')) {
        p += 2;
        while (end_ - p >= 2 && !(p[0] == '*' && p[1] == '/')) {
          line_ += *p == '\n' ? 1 : 0;
          ++p;
        }
        if (end_ - p < 2) fail("unterminated block comment");
        p += 2;
        continue;
      }
      // Compiler directives (`timescale etc.): skip to end of line.
      if (p < end_ && *p == '`') {
        p = endOfLine(p);
        continue;
      }
      break;
    }
    p_ = p;
  }

  /// Advances past the run of bytes in class `cls` (or, with `until`, not
  /// in it) and returns the text from `start`.
  std::string_view scan(const char* start, std::uint8_t cls, bool until) {
    const char* p = p_;
    while (p < end_ && chars::is(*p, cls) != until) ++p;
    p_ = p;
    return {start, static_cast<std::size_t>(p - start)};
  }

  Token lex() {
    skipSpaceAndComments();
    Token t;
    if (p_ == end_) return t;
    const char* const start = p_;
    const char c = *p_;
    if (c == '\\') {
      // Escaped identifier: up to next whitespace, backslash dropped.
      ++p_;
      t.kind = TokKind::kIdent;
      t.text = scan(start + 1, chars::kSpace, /*until=*/true);
      t.kw = keyword(t.text);
      t.escaped = true;
      return t;
    }
    if (chars::is(c, chars::kIdentStart)) {
      t.kind = TokKind::kIdent;
      t.text = scan(start, chars::kIdentCont, /*until=*/false);
      t.kw = keyword(t.text);
      return t;
    }
    if (chars::is(c, chars::kDigit) || c == '\'') {
      // Number: [size]'[base]digits or plain decimal.
      scan(start, chars::kDigit, /*until=*/false);
      if (p_ < end_ && *p_ == '\'') {
        ++p_;
        if (p_ < end_) ++p_;  // base char
        while (p_ < end_ && (chars::is(*p_, chars::kAlnum) || *p_ == '_')) {
          ++p_;
        }
      }
      t.kind = TokKind::kNumber;
      t.text = {start, static_cast<std::size_t>(p_ - start)};
      return t;
    }
    if (chars::is(c, chars::kPunct)) {
      ++p_;
      t.kind = TokKind::kPunct;
      t.punct = c;
      return t;
    }
    fail(std::string("unexpected character '") + c + "'");
  }

  const char* p_;  // next byte to lex
  const char* end_;
  int line_ = 1;
  Token cur_;
  bool have_ = false;
};

// --------------------------------------------------------------- Parser

/// One bit of an elaborated expression: a net or a constant.
struct BitRef {
  NetId net;          // valid -> net bit
  bool const_val = false;  // used when net invalid
};

struct BusDecl {
  std::int32_t msb = 0;
  std::int32_t lsb = 0;
};

/// A cell type as the current module's instances see it, resolved once
/// per type rather than per instance: the design module it names (if
/// any), each pin used so far with its direction and MSB-first bit names,
/// and the positional pin order.  Names are interned the first time an
/// instance needs them, which is where per-instance interning put them.
struct CellTypeInfo {
  struct Bit {
    std::string_view name;  // into the source, `order` or the NameTable
    NameId id;              // interned on first use
  };
  struct Pin {
    std::string_view name;
    PortDir dir = PortDir::kInput;
    std::uint32_t first = 0;  // into bits
    std::uint32_t width = 0;
  };

  std::string_view name;
  NameId id;  // interned on first use
  const Module* sub = nullptr;
  std::vector<Pin> pins;
  std::vector<Bit> bits;
  std::optional<std::vector<std::string>> order;
};

/// What the current module's parse knows about one name: the net it
/// names and the bus it declares.  Stamped with the module's sequence
/// number, so a stale entry from an earlier module reads as empty.
struct LocalName {
  std::uint32_t module = 0;
  NetId net;
  std::uint32_t bus = NameIndex::kNone;  // index into bus_decls_
};

class Parser {
 public:
  Parser(Design& design, std::string_view src, const CellTypeProvider& types,
         const VerilogReadOptions& options)
      : design_(design),
        lex_(src),
        types_(types),
        options_(options),
        // Capacity hints: a statement declares about one name (a net or an
        // instance), and a named connection starts with '.'.
        statements_(static_cast<std::size_t>(
            std::count(src.begin(), src.end(), ';'))),
        connections_(static_cast<std::size_t>(
            std::count(src.begin(), src.end(), '.'))) {}

  void parseFile() {
    names().reserve(names().size() + statements_);
    while (lex_.peek().kind != TokKind::kEof) {
      expectKeyword(Kw::kModule, "module");
      parseModule();
    }
  }

  [[nodiscard]] std::string_view lastModule() const { return last_module_; }

 private:
  [[noreturn]] void fail(const std::string& msg) {
    throw VerilogError("verilog:" + std::to_string(lex_.line()) + ": " + msg);
  }

  NameTable& names() { return design_.names(); }

  Token expect(TokKind kind, const char* what) {
    Token t = lex_.next();
    if (t.kind != kind) fail(std::string("expected ") + what);
    return t;
  }

  void expectPunct(char p) {
    Token t = lex_.next();
    if (t.kind != TokKind::kPunct || t.punct != p) {
      fail(std::string("expected '") + p + "'");
    }
  }

  void expectKeyword(Kw kw, std::string_view text) {
    Token t = lex_.next();
    if (t.kind != TokKind::kIdent || t.kw != kw) {
      fail("expected keyword '" + std::string(text) + "'");
    }
  }

  bool peekPunct(char p) {
    const Token& t = lex_.peek();
    return t.kind == TokKind::kPunct && t.punct == p;
  }

  bool peekKeyword(Kw kw) {
    const Token& t = lex_.peek();
    return t.kind == TokKind::kIdent && t.kw == kw;
  }

  /// Consumes a `,` and returns true when one follows.
  bool nextComma() {
    if (!peekPunct(',')) return false;
    lex_.next();
    return true;
  }

  /// Maps possibly-escaped identifiers to the module-local simple name.
  std::string_view canonName(const Token& t) {
    if (!t.escaped || !options_.simplify_escaped_names) return t.text;
    auto it = escaped_map_.find(t.text);
    if (it != escaped_map_.end()) return names().str(it->second);
    std::string simple;
    simple.reserve(t.text.size() + 4);
    for (char c : t.text) {
      simple.push_back(chars::is(c, chars::kAlnum) ? c : '_');
    }
    if (simple.empty() || chars::is(simple.front(), chars::kDigit)) {
      simple.insert(simple.begin(), 'n');
    }
    // Ensure the substitution does not collide with an existing name.
    const NameId id = names().makeUnique(simple);
    escaped_map_.emplace(t.text, id);
    return names().str(id);
  }

  // --- range / declarations ------------------------------------------

  std::optional<BusDecl> parseOptionalRange() {
    if (!peekPunct('[')) return std::nullopt;
    lex_.next();
    BusDecl d;
    d.msb = parseInt();
    expectPunct(':');
    d.lsb = parseInt();
    expectPunct(']');
    return d;
  }

  std::int32_t parseInt() {
    Token t = expect(TokKind::kNumber, "integer");
    std::int32_t v = 0;
    const char* end = t.text.data() + t.text.size();
    auto [p, ec] = std::from_chars(t.text.data(), end, v);
    if (ec != std::errc() || p != end) {
      fail("bad integer '" + std::string(t.text) + "'");
    }
    return v;
  }

  /// Calls f(bit) for each bit of `range`, MSB first.
  template <typename F>
  static void forEachBit(const BusDecl& range, F&& f) {
    const std::int32_t step = range.msb >= range.lsb ? -1 : 1;
    for (std::int32_t b = range.msb;; b += step) {
      f(b);
      if (b == range.lsb) break;
    }
  }

  /// "base[bit]", built in a reused buffer.
  std::string_view bitName(std::string_view base, std::int32_t bit) {
    bit_name_.assign(base);
    bit_name_ += '[';
    char digits[16];
    bit_name_.append(digits,
                     std::to_chars(digits, digits + sizeof digits, bit).ptr);
    bit_name_ += ']';
    return bit_name_;
  }

  LocalName& local(NameId name) {
    if (name.index() >= local_.size()) local_.resize(names().size());
    LocalName& entry = local_[name.index()];
    if (entry.module != module_seq_) {
      entry = LocalName{module_seq_, NetId{}, NameIndex::kNone};
    }
    return entry;
  }

  /// The net named `name`.  The module's own index is only asked the first
  /// time (a net the parse did not create, a constant net, may exist).
  NetId netNamed(NameId name) {
    LocalName& entry = local(name);
    if (!entry.net.valid()) {
      entry.net = module_->findNet(name);
      if (!entry.net.valid()) entry.net = module_->addNet(name);
    }
    return entry.net;
  }

  /// The net for bit `bit` of `base`, created as a bus bit when absent.
  NetId bitNet(std::string_view base, std::int32_t bit) {
    const NameId name = names().intern(bitName(base, bit));
    LocalName& entry = local(name);
    if (!entry.net.valid()) {
      entry.net = module_->findNet(name);
      if (!entry.net.valid()) {
        entry.net = module_->addNet(name, BusRef{names().intern(base), bit});
      }
    }
    return entry.net;
  }

  void declareNets(std::string_view base, std::optional<BusDecl> range) {
    if (!range) {
      const NameId name = names().intern(base);
      netNamed(name);
      local(name).bus = NameIndex::kNone;
      return;
    }
    forEachBit(*range, [&](std::int32_t b) { bitNet(base, b); });
    // Interned by the bits above, unless every one of them existed already.
    LocalName& entry = local(names().intern(base));
    if (entry.bus != NameIndex::kNone) {
      bus_decls_[entry.bus] = *range;
    } else {
      entry.bus = static_cast<std::uint32_t>(bus_decls_.size());
      bus_decls_.push_back(*range);
    }
  }

  void declarePorts(std::string_view base, std::optional<BusDecl> range,
                    PortDir dir) {
    declareNets(base, range);
    if (!range) {
      if (!module_->findPort(base).valid()) {
        module_->addPort(base, dir, module_->findNet(base));
      }
      return;
    }
    forEachBit(*range, [&](std::int32_t b) {
      const std::string_view name = bitName(base, b);
      if (!module_->findPort(name).valid()) {
        module_->addPort(name, dir, module_->findNet(name), base, b);
      }
    });
  }

  // --- expressions -----------------------------------------------------

  /// Elaborates an expression and appends its bits, MSB first, to bits_.
  void parseExpr() {
    if (peekPunct('{')) {
      lex_.next();
      do {
        parseExpr();
      } while (nextComma());
      expectPunct('}');
      return;
    }
    const Token& p = lex_.peek();
    if (p.kind == TokKind::kNumber) {
      constBits(lex_.next().text);
      return;
    }
    if (p.kind == TokKind::kIdent) {
      const std::string_view base = canonName(lex_.next());
      if (peekPunct('[')) {
        lex_.next();
        BusDecl range;
        range.msb = parseInt();
        range.lsb = range.msb;
        if (peekPunct(':')) {
          lex_.next();
          range.lsb = parseInt();
        }
        expectPunct(']');
        forEachBit(range, [&](std::int32_t b) {
          bits_.push_back(BitRef{bitNet(base, b), false});
        });
        return;
      }
      const NameId name = names().intern(base);
      const std::uint32_t bus = local(name).bus;
      if (bus != NameIndex::kNone) {
        forEachBit(bus_decls_[bus], [&](std::int32_t b) {
          bits_.push_back(BitRef{bitNet(base, b), false});
        });
        return;
      }
      bits_.push_back(BitRef{netNamed(name), false});
      return;
    }
    fail("expected expression");
  }

  void constBits(std::string_view literal_view) {
    // Parse [size]'[base]digits; unsized plain decimal treated as 32-bit
    // truncated to the needed width by the caller via width matching.
    // Gate-level netlists carry only small control constants, so the value
    // must fit 64 bits; widths are capped to keep a typo like 1000000'b0
    // from allocating a million nets.
    constexpr int kMaxWidth = 4096;
    const std::string literal(literal_view);
    std::size_t tick = literal.find('\'');
    std::uint64_t value = 0;
    int width = 32;
    if (tick == std::string::npos) {
      const auto [p, ec] = std::from_chars(
          literal.data(), literal.data() + literal.size(), value);
      if (ec != std::errc() || p != literal.data() + literal.size()) {
        fail("bad constant '" + literal + "'");
      }
    } else {
      if (tick > 0) {
        const auto [p, ec] =
            std::from_chars(literal.data(), literal.data() + tick, width);
        if (ec != std::errc() || p != literal.data() + tick || width <= 0) {
          fail("bad constant width in '" + literal + "'");
        }
        if (width > kMaxWidth) {
          fail("constant width " + std::to_string(width) + " exceeds " +
               std::to_string(kMaxWidth) + " in '" + literal + "'");
        }
      }
      if (tick + 1 >= literal.size()) {
        fail("missing base in constant '" + literal + "'");
      }
      char base = static_cast<char>(
          std::tolower(static_cast<unsigned char>(literal[tick + 1])));
      if (base != 'b' && base != 'o' && base != 'd' && base != 'h') {
        fail(std::string("bad constant base '") + literal[tick + 1] +
             "' in '" + literal + "'");
      }
      std::string digits = literal.substr(tick + 2);
      digits.erase(std::remove(digits.begin(), digits.end(), '_'),
                   digits.end());
      if (digits.empty()) {
        fail("missing digits in constant '" + literal + "'");
      }
      int radix = base == 'b' ? 2 : base == 'o' ? 8 : base == 'd' ? 10 : 16;
      for (char c : digits) {
        int d = 0;
        if (c >= '0' && c <= '9') {
          d = c - '0';
        } else if (c >= 'a' && c <= 'f') {
          d = c - 'a' + 10;
        } else if (c >= 'A' && c <= 'F') {
          d = c - 'A' + 10;
        } else if (c == 'x' || c == 'z' || c == 'X' || c == 'Z') {
          d = 0;  // x/z treated as 0 for gate-level constants
        } else {
          fail("bad constant digit in '" + literal + "'");
        }
        if (d >= radix) {
          fail(std::string("digit '") + c + "' out of range for base '" +
               base + "' in '" + literal + "'");
        }
        const std::uint64_t next =
            value * static_cast<std::uint64_t>(radix) +
            static_cast<std::uint64_t>(d);
        if (value > (std::numeric_limits<std::uint64_t>::max() -
                     static_cast<std::uint64_t>(d)) /
                        static_cast<std::uint64_t>(radix)) {
          fail("constant value overflows 64 bits in '" + literal + "'");
        }
        value = next;
      }
    }
    for (int i = 0; i < width; ++i) {
      // Bits beyond the 64-bit value (wide zero-padded constants) are 0;
      // width - 1 - i >= 64 would be UB on the shift.  MSB first.
      const int pos = width - 1 - i;
      bits_.push_back(
          BitRef{NetId{}, pos < 64 && ((value >> pos) & 1u) != 0});
    }
  }

  // --- module ----------------------------------------------------------

  void parseModule() {
    Token name = expect(TokKind::kIdent, "module name");
    module_ = &design_.addModule(name.text);
    module_->reserve(statements_, statements_, connections_);
    last_module_ = name.text;
    ++module_seq_;
    bus_decls_.clear();
    escaped_map_.clear();
    type_info_.clear();
    pending_assigns_.clear();

    if (peekPunct('(')) {
      lex_.next();
      if (!peekPunct(')')) parsePortHeader();
      expectPunct(')');
    }
    expectPunct(';');

    while (!peekKeyword(Kw::kEndmodule)) {
      parseItem();
    }
    lex_.next();  // endmodule

    resolveAssigns();
  }

  static std::optional<PortDir> portDir(Kw kw) {
    switch (kw) {
      case Kw::kInput: return PortDir::kInput;
      case Kw::kOutput: return PortDir::kOutput;
      case Kw::kInout: return PortDir::kInout;
      default: return std::nullopt;
    }
  }

  void parsePortHeader() {
    do {
      const Token& p = lex_.peek();
      if (p.kind == TokKind::kIdent && portDir(p.kw)) {
        // ANSI style: direction [range] name {, [direction [range]] name}
        parseAnsiPortGroup();
      } else {
        // A non-ANSI header only names the ports; their declarations
        // follow.  Escaped names still get their simple name here, in
        // header order.
        canonName(expect(TokKind::kIdent, "port name"));
      }
    } while (nextComma());
  }

  void parseAnsiPortGroup() {
    const PortDir dir = *portDir(lex_.next().kw);
    if (peekKeyword(Kw::kWire) || peekKeyword(Kw::kReg)) lex_.next();
    auto range = parseOptionalRange();
    Token name = expect(TokKind::kIdent, "port name");
    declarePorts(canonName(name), range, dir);
  }

  void parseItem() {
    Token t = lex_.next();
    if (t.kind != TokKind::kIdent) fail("expected module item");
    if (const std::optional<PortDir> dir = portDir(t.kw)) {
      if (peekKeyword(Kw::kWire) || peekKeyword(Kw::kReg)) lex_.next();
      auto range = parseOptionalRange();
      do {
        Token name = expect(TokKind::kIdent, "port name");
        declarePorts(canonName(name), range, *dir);
      } while (nextComma());
      expectPunct(';');
      return;
    }
    switch (t.kw) {
      case Kw::kWire:
      case Kw::kTri:
      case Kw::kReg: {
        auto range = parseOptionalRange();
        do {
          Token name = expect(TokKind::kIdent, "net name");
          declareNets(canonName(name), range);
        } while (nextComma());
        expectPunct(';');
        return;
      }
      case Kw::kSupply0:
      case Kw::kSupply1: {
        const bool one = t.kw == Kw::kSupply1;
        do {
          Token name = expect(TokKind::kIdent, "net name");
          NetId id = netNamed(names().intern(canonName(name)));
          module_->net(id).driver =
              TermRef{one ? TermKind::kConst1 : TermKind::kConst0, 0, 0};
        } while (nextComma());
        expectPunct(';');
        return;
      }
      case Kw::kAssign:
        parseAssign();
        return;
      default:
        // Otherwise: an instance.  t.text is the cell/module type name.
        parseInstance(t.text);
    }
  }

  void parseAssign() {
    bits_.clear();
    parseExpr();
    const std::size_t width = bits_.size();  // the lhs is bits_[0, width)
    expectPunct('=');
    parseExpr();
    expectPunct(';');
    // Drop excess MSBs of an (unsized) constant.
    const std::size_t rhs_first = std::max(width, bits_.size() - width);
    if (bits_.size() - rhs_first != width) fail("assign width mismatch");
    for (std::size_t i = 0; i < width; ++i) {
      if (!bits_[i].net.valid()) fail("assign to constant");
      pending_assigns_.push_back({bits_[i].net, bits_[rhs_first + i]});
    }
  }

  /// One `.pin(expr)` (or positional) connection: its bits are
  /// bits_[first, first + count).
  struct Binding {
    std::string_view pin;  // empty for positional until resolved
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    bool explicit_empty = false;  // .pin() with no expression
  };

  void parseInstance(std::string_view type) {
    // Skip parameter lists: #( ... )
    if (peekPunct('#')) {
      lex_.next();
      expectPunct('(');
      int depth = 1;
      while (depth > 0) {
        Token t = lex_.next();
        if (t.kind == TokKind::kEof) fail("unterminated parameter list");
        if (t.kind == TokKind::kPunct && t.punct == '(') ++depth;
        if (t.kind == TokKind::kPunct && t.punct == ')') --depth;
      }
    }
    Token inst = expect(TokKind::kIdent, "instance name");
    const std::string_view inst_name = canonName(inst);
    expectPunct('(');
    bindings_.clear();
    bits_.clear();
    const bool named = peekPunct('.');
    if (!peekPunct(')')) {
      do {
        Binding b;
        b.first = static_cast<std::uint32_t>(bits_.size());
        if (named) {
          expectPunct('.');
          b.pin = expect(TokKind::kIdent, "pin name").text;
          expectPunct('(');
          if (peekPunct(')')) {
            b.explicit_empty = true;
          } else {
            parseExpr();
          }
          expectPunct(')');
        } else {
          parseExpr();
        }
        b.count = static_cast<std::uint32_t>(bits_.size()) - b.first;
        bindings_.push_back(b);
      } while (nextComma());
    }
    expectPunct(')');
    expectPunct(';');
    makeInstance(type, inst_name, named);
  }

  /// The type record for `type`.  A module instantiating itself sees its
  /// own ports as declared so far, so its record is rebuilt every time.
  CellTypeInfo& typeInfo(std::string_view type) {
    auto [it, fresh] = type_info_.try_emplace(type);
    CellTypeInfo& info = it->second;
    if (fresh) {
      info.name = type;
      info.sub = design_.findModule(type);
    }
    if (info.sub == module_) {
      info = CellTypeInfo{};
      info.name = type;
      info.sub = module_;
    }
    return info;
  }

  /// Width and direction of a pin of the type; consults the module
  /// definition first, then the external provider.  nullptr when unknown.
  const CellTypeInfo::Pin* resolvePin(CellTypeInfo& info,
                                      std::string_view pin) {
    for (const CellTypeInfo::Pin& p : info.pins) {
      if (p.name == pin) return &p;
    }
    CellTypeInfo::Pin out{pin, PortDir::kInput,
                          static_cast<std::uint32_t>(info.bits.size()), 1};
    if (const Module* sub = info.sub) {
      const PortId pid = sub->findPort(pin);
      if (pid.valid()) {  // scalar port
        out.dir = sub->port(pid).dir;
        info.bits.push_back({pin, sub->port(pid).name});
      } else {
        // Bus port: its bits by descending bit index (MSB first); the
        // first port declared for a bit wins, and the MSB's direction is
        // the pin's.
        const NameId bus = names().find(pin);
        std::vector<std::pair<std::int32_t, const Port*>> ports;
        for (const Port& p : sub->ports()) {
          if (bus.valid() && p.bus.valid() && p.bus.bus == bus) {
            ports.emplace_back(p.bus.bit, &p);
          }
        }
        if (ports.empty()) return nullptr;
        std::stable_sort(ports.begin(), ports.end(),
                         [](const auto& a, const auto& b) {
                           return a.first > b.first;
                         });
        ports.erase(std::unique(ports.begin(), ports.end(),
                                [](const auto& a, const auto& b) {
                                  return a.first == b.first;
                                }),
                    ports.end());
        out.dir = ports.front().second->dir;
        out.width = static_cast<std::uint32_t>(ports.size());
        for (const auto& [bit, p] : ports) {
          info.bits.push_back({names().str(p->name), p->name});
        }
      }
    } else if (const auto dir = types_.pinDir(info.name, pin)) {
      out.dir = *dir;
      info.bits.push_back({pin, NameId{}});
    } else {
      return nullptr;
    }
    info.pins.push_back(out);
    return &info.pins.back();
  }

  void makeInstance(std::string_view type, std::string_view inst_name,
                    bool named) {
    CellTypeInfo& info = typeInfo(type);
    if (!named && !bindings_.empty()) {
      if (!info.order) {
        // Positional connection to a submodule: reconstruct header order
        // from the declaration order of scalar ports / bus groups.
        info.order = info.sub != nullptr ? modulePinOrder(*info.sub)
                                         : types_.pinOrder(type);
      }
      if (info.order->size() < bindings_.size()) {
        fail("positional connection count exceeds pins of " +
             std::string(type));
      }
      for (std::size_t i = 0; i < bindings_.size(); ++i) {
        bindings_[i].pin = (*info.order)[i];
      }
    }
    // Each pin bit's direction and net, and its index into info.bits; the
    // names are interned below, after the constant nets, as addCell would.
    pins_.clear();
    pin_bits_.clear();
    for (Binding& b : bindings_) {
      const CellTypeInfo::Pin* pin = resolvePin(info, b.pin);
      if (pin == nullptr) {
        fail("unknown pin '" + std::string(b.pin) + "' on cell type '" +
             std::string(type) + "'");
      }
      if (b.explicit_empty) {
        for (std::uint32_t i = 0; i < pin->width; ++i) {
          pins_.push_back(PinConn{NameId{}, pin->dir, NetId{}});
          pin_bits_.push_back(pin->first + i);
        }
        continue;
      }
      if (b.count > pin->width) {
        b.first += b.count - pin->width;
        b.count = pin->width;
      }
      if (b.count != pin->width) {
        fail("width mismatch on pin '" + std::string(b.pin) + "' of '" +
             std::string(type) + "'");
      }
      for (std::uint32_t i = 0; i < b.count; ++i) {
        const BitRef& bit = bits_[b.first + i];
        const NetId net =
            bit.net.valid() ? bit.net : module_->constNet(bit.const_val);
        pins_.push_back(PinConn{NameId{}, pin->dir, net});
        pin_bits_.push_back(pin->first + i);
      }
    }
    const NameId inst = names().intern(inst_name);
    if (!info.id.valid()) info.id = names().intern(type);
    for (std::size_t i = 0; i < pins_.size(); ++i) {
      CellTypeInfo::Bit& bit = info.bits[pin_bits_[i]];
      if (!bit.id.valid()) bit.id = names().intern(bit.name);
      pins_[i].name = bit.id;
    }
    module_->addCell(inst, info.id, pins_);
  }

  std::vector<std::string> modulePinOrder(const Module& sub) {
    std::vector<std::string> order;
    std::string last_bus;
    for (const Port& p : sub.ports()) {
      if (p.bus.valid()) {
        std::string bus(names().str(p.bus.bus));
        if (bus != last_bus) {
          order.push_back(bus);
          last_bus = bus;
        }
      } else {
        order.emplace_back(names().str(p.name));
        last_bus.clear();
      }
    }
    return order;
  }

  // --- assign folding ---------------------------------------------------

  struct PendingAssign {
    NetId lhs;
    BitRef rhs;
  };

  void resolveAssigns() {
    // Folding merges nets; later assigns may reference nets already merged
    // away, so forward ids through the merge history.
    std::unordered_map<std::uint32_t, NetId> forwarded;
    auto resolve = [&](NetId id) {
      for (;;) {
        auto it = forwarded.find(id.value);
        if (it == forwarded.end()) return id;
        id = it->second;
      }
    };
    auto merge = [&](NetId from, NetId to) {
      module_->mergeNetInto(from, to);
      forwarded.emplace(from.value, to);
    };
    for (const PendingAssign& a : pending_assigns_) {
      NetId lhs_id = resolve(a.lhs);
      Net& lhs = module_->net(lhs_id);
      if (!a.rhs.net.valid()) {
        // Constant drive.
        if (lhs.driver.kind != TermKind::kNone) {
          fail("assign target already driven: " +
               std::string(module_->netName(lhs_id)));
        }
        lhs.driver = TermRef{
            a.rhs.const_val ? TermKind::kConst1 : TermKind::kConst0, 0, 0};
        continue;
      }
      if (!options_.fold_assigns) continue;
      NetId rhs_id = resolve(a.rhs.net);
      if (lhs_id == rhs_id) continue;
      // `assign lhs = rhs` -> rhs drives lhs: merge lhs into rhs, unless lhs
      // is itself a port-driven net (then merge rhs into lhs when rhs has no
      // other driver).
      const Net& lhs_net = module_->net(lhs_id);
      if (lhs_net.driver.kind == TermKind::kNone) {
        merge(lhs_id, rhs_id);
      } else if (lhs_net.driver.isPort() &&
                 module_->net(rhs_id).driver.kind == TermKind::kNone) {
        merge(rhs_id, lhs_id);
      } else {
        fail("cannot fold assign onto driven net " +
             std::string(module_->netName(lhs_id)));
      }
    }
    pending_assigns_.clear();
  }

  Design& design_;
  Lexer lex_;
  const CellTypeProvider& types_;
  VerilogReadOptions options_;
  std::size_t statements_;   // ';' in the source
  std::size_t connections_;  // '.' in the source

  Module* module_ = nullptr;
  std::string last_module_;
  // Per module: nets and declared buses by name (local_ is indexed by
  // NameId and stamped with module_seq_), escaped-name substitutions and
  // cell type records.
  std::vector<LocalName> local_;
  std::uint32_t module_seq_ = 0;
  std::vector<BusDecl> bus_decls_;
  std::unordered_map<std::string_view, NameId> escaped_map_;
  std::unordered_map<std::string_view, CellTypeInfo> type_info_;
  std::vector<PendingAssign> pending_assigns_;
  // Per statement, reused so an instance allocates nothing of its own.
  std::vector<BitRef> bits_;
  std::vector<Binding> bindings_;
  std::vector<PinConn> pins_;
  std::vector<std::uint32_t> pin_bits_;
  std::string bit_name_;
};

}  // namespace

void readVerilog(Design& design, std::string_view source,
                 const CellTypeProvider& types,
                 const VerilogReadOptions& options,
                 std::string_view top_hint) {
  Parser parser(design, source, types, options);
  parser.parseFile();
  if (!top_hint.empty() && design.findModule(top_hint) != nullptr) {
    design.setTop(top_hint);
  } else if (!parser.lastModule().empty()) {
    design.setTop(parser.lastModule());
  }
}

void readVerilogFile(Design& design, const std::string& path,
                     const CellTypeProvider& types,
                     const VerilogReadOptions& options,
                     std::string_view top_hint) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw VerilogError("cannot open " + path);
  std::string text;
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) {
    // Not a regular file (a pipe, say): read it to its end.
    text.assign(std::istreambuf_iterator<char>(in), {});
  } else {
    text.resize(size);
    in.read(text.data(), static_cast<std::streamsize>(size));
    text.resize(static_cast<std::size_t>(in.gcount()));
  }
  readVerilog(design, text, types, options, top_hint);
}

}  // namespace desync::netlist
