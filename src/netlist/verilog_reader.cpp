#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <unordered_map>

#include "netlist/verilog.h"
#include "netlist/verilog_chars.h"
#include "netlist/verilog_lexer.h"

namespace desync::netlist {
namespace {

namespace chars = verilog_chars;
using namespace verilog_lexer;

constexpr std::uint32_t kNone = NameIndex::kNone;

// --------------------------------------------------------------- Parser

/// What the read knows about one name text: its id in the design's table,
/// once interned, and what it names in the module being parsed (a net, a
/// declared bus, a cell type), stamped with the module's sequence number
/// so an entry from an earlier module reads as empty.
struct Symbol {
  NameId name;  // invalid until first needed
  std::uint32_t module = 0;
  NetId net;
  std::uint32_t bus = kNone;   // into bus_decls_
  std::uint32_t type = kNone;  // into cell_types_
};

/// One bit of an elaborated expression: a net or a constant.
struct BitRef {
  NetId net;          // valid -> net bit
  bool const_val = false;  // used when net invalid
};

/// A declared range; a bus's record also locates its nets, MSB first, at
/// bus_nets_[first, first + width).
struct BusDecl {
  std::int32_t msb = 0;
  std::int32_t lsb = 0;
  std::uint32_t first = 0;

  /// Offset of `bit` from the MSB, or kNone outside the range.
  [[nodiscard]] std::uint32_t offset(std::int32_t bit) const {
    const std::int64_t from_msb =
        msb >= lsb ? std::int64_t{msb} - bit : std::int64_t{bit} - msb;
    const std::int64_t width =
        (msb >= lsb ? std::int64_t{msb} - lsb : std::int64_t{lsb} - msb) + 1;
    return from_msb >= 0 && from_msb < width
               ? static_cast<std::uint32_t>(from_msb)
               : kNone;
  }
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

  std::uint32_t symbol = kNone;  // the type name's
  const Module* sub = nullptr;
  std::vector<Pin> pins;
  std::vector<Bit> bits;
  std::optional<std::vector<std::string>> order;
};

/// Capacity hints for one module, from one pass over its text.
struct ModuleCounts {
  std::size_t cells = 0;
  std::size_t nets = 0;
  std::size_t pins = 0;
};

/// Counts the module whose text starts `src` and runs to the next
/// "endmodule" (or the end).
ModuleCounts countModule(std::string_view src) {
  const char* const text = src.data();
  const std::size_t size = std::min(src.size(), src.find("endmodule"));
  std::size_t semis = 0, dots = 0, parens = 0, colons = 0;
  // Fixed blocks with byte-wide tallies: a loop the compiler vectorizes.
  constexpr std::size_t kBlock = 240;
  std::size_t i = 0;
  for (; i + kBlock <= size; i += kBlock) {
    std::uint8_t s = 0, d = 0, p = 0, c = 0;
    for (std::size_t j = 0; j < kBlock; ++j) {
      s += text[i + j] == ';';
      d += text[i + j] == '.';
      p += text[i + j] == '(';
      c += text[i + j] == ':';
    }
    semis += s;
    dots += d;
    parens += p;
    colons += c;
  }
  for (; i < size; ++i) {
    semis += text[i] == ';';
    dots += text[i] == '.';
    parens += text[i] == '(';
    colons += text[i] == ':';
  }
  ModuleCounts n;
  // A '.' starts a named connection, and an instance opens one '(' of its
  // own besides one per named connection.
  n.pins = dots;
  n.cells = parens > dots ? parens - dots : 0;
  // A statement that is not an instance declares about one net, and a
  // range (its ':') about a word of them.
  n.nets = (semis > n.cells ? semis - n.cells : 0) + 32 * colons;
  return n;
}

class Parser {
 public:
  Parser(Design& design, std::string_view src, const CellTypeProvider& types,
         const VerilogReadOptions& options)
      : design_(design),
        lex_(src),
        types_(types),
        options_(options) {}

  void parseFile() {
    while (lex_.peek().kind != TokKind::kEof) {
      const Token t = lex_.next();
      if (t.kind != TokKind::kIdent || keyword(t.text()) != Kw::kModule) {
        fail("expected keyword 'module'");
      }
      // The database's own errors (duplicate names, a second driver) get
      // the line of the statement that raised them.
      try {
        parseModule();
      } catch (const NetlistError& e) {
        fail(e.what());
      }
    }
  }

  [[nodiscard]] std::string_view lastModule() const { return last_module_; }

  [[nodiscard]] VerilogReadStats stats() const {
    return {name_probes_, symbol_probes_};
  }

 private:
  [[noreturn]] void fail(const std::string& msg) {
    throw VerilogError("verilog:" + std::to_string(lex_.line()) + ": " + msg);
  }

  NameTable& names() { return design_.names(); }

  // The reader's NameTable lookups, counted.
  NameId intern(std::string_view s) {
    ++name_probes_;
    return names().intern(s);
  }
  NameId find(std::string_view s) {
    ++name_probes_;
    return names().find(s);
  }

  Token expect(TokKind kind, const char* what) {
    Token t = lex_.next();
    if (t.kind != kind) fail(std::string("expected ") + what);
    return t;
  }

  void expectPunct(char p) {
    if (lex_.acceptPunct(p)) return;
    lex_.peek();  // a bad byte is reported as such
    fail(std::string("expected '") + p + "'");
  }

  bool peekPunct(char p) { return lex_.peekPunct(p); }

  /// Consumes `wire` or `reg` after a port direction.
  void skipNetKind() {
    const Token& t = lex_.peek();
    if (t.kind != TokKind::kIdent) return;
    const Kw kw = keyword(t.text());
    if (kw == Kw::kWire || kw == Kw::kReg) lex_.next();
  }

  /// Consumes a `,` and returns true when one follows.
  bool nextComma() { return lex_.acceptPunct(','); }

  /// Maps possibly-escaped identifiers to the module-local simple name.
  std::string_view canonName(const Token& t) {
    if (!t.escaped || !options_.simplify_escaped_names) return t.text();
    auto it = escaped_map_.find(t.text());
    if (it != escaped_map_.end()) return names().str(it->second);
    std::string simple;
    simple.reserve(t.text().size() + 4);
    for (char c : t.text()) {
      simple.push_back(chars::is(c, chars::kAlnum) ? c : '_');
    }
    if (simple.empty() || chars::is(simple.front(), chars::kDigit)) {
      simple.insert(simple.begin(), 'n');
    }
    // Ensure the substitution does not collide with an existing name.
    // makeUnique looks `simple` up, then each "_<k>" it tries, then interns.
    const NameId id = names().makeUnique(simple);
    const std::string_view got = names().str(id);
    std::size_t tries = 0;
    if (got.size() > simple.size()) {
      std::from_chars(got.data() + simple.size() + 1, got.data() + got.size(),
                      tries);
    }
    name_probes_ += 2 + tries;
    escaped_map_.emplace(t.text(), id);
    return got;
  }

  // --- symbols ---------------------------------------------------------

  /// The symbol for `text`: one probe of the read's own table of texts.
  std::uint32_t symbol(std::string_view text) {
    ++symbol_probes_;
    const std::uint32_t i = texts_.intern(text).index();
    if (i == symbols_.size()) symbols_.emplace_back();
    return i;
  }

  std::uint32_t symbolOf(const Token& t) { return symbol(canonName(t)); }

  /// Symbol `i` as the current module sees it.
  Symbol& local(std::uint32_t i) {
    Symbol& s = symbols_[i];
    if (s.module != module_seq_) {
      s.module = module_seq_;
      s.net = NetId{};
      s.bus = kNone;
      s.type = kNone;
    }
    return s;
  }

  std::string_view textOf(std::uint32_t i) { return texts_.str(NameId{i}); }

  /// The symbol's id in the design's table, interned on first need.
  NameId nameOf(std::uint32_t i) {
    if (!symbols_[i].name.valid()) symbols_[i].name = intern(textOf(i));
    return symbols_[i].name;
  }

  /// The net symbol `i` names, created (as bit `bit` of bus `bus` when
  /// that is a symbol) when absent.  The module's own index is only asked
  /// the first time (a net the parse did not create, a constant net, may
  /// exist).
  NetId netOf(std::uint32_t i, std::uint32_t bus = kNone,
              std::int32_t bit = 0) {
    if (!local(i).net.valid()) {
      const NameId name = nameOf(i);
      NetId net = module_->findNet(name);
      if (!net.valid()) {
        const BusRef ref = bus != kNone ? BusRef{nameOf(bus), bit} : BusRef{};
        net = module_->addNet(name, ref);
      }
      symbols_[i].net = net;
    }
    return symbols_[i].net;
  }

  /// The net for bit `bit` of bus `base`: from the bus record when the bus
  /// declares that bit, else by its "base[bit]" name, created as a bus bit
  /// when absent.
  NetId bitNet(std::uint32_t base, std::int32_t bit) {
    if (const std::uint32_t bus = local(base).bus; bus != kNone) {
      const BusDecl& decl = bus_decls_[bus];
      const std::uint32_t at = decl.offset(bit);
      if (at != kNone) return bus_nets_[decl.first + at];
    }
    return netOf(symbol(bitName(textOf(base), bit)), base, bit);
  }

  // --- range / declarations ------------------------------------------

  std::optional<BusDecl> parseOptionalRange() {
    if (!lex_.acceptPunct('[')) return std::nullopt;
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
    const char* end = t.text().data() + t.text().size();
    auto [p, ec] = std::from_chars(t.text().data(), end, v);
    if (ec != std::errc() || p != end) {
      fail("bad integer '" + std::string(t.text()) + "'");
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

  void declareNets(std::uint32_t base, std::optional<BusDecl> range) {
    if (!range) {
      netOf(base);
      symbols_[base].bus = kNone;
      return;
    }
    BusDecl decl = *range;
    decl.first = static_cast<std::uint32_t>(bus_nets_.size());
    forEachBit(decl, [&](std::int32_t b) {
      const NetId net = bitNet(base, b);
      bus_nets_.push_back(net);
    });
    // Interned by the bits above, unless every one of them existed already.
    nameOf(base);
    Symbol& s = local(base);
    if (s.bus != kNone) {
      bus_decls_[s.bus] = decl;
    } else {
      s.bus = static_cast<std::uint32_t>(bus_decls_.size());
      bus_decls_.push_back(decl);
    }
  }

  void declarePorts(std::uint32_t base, std::optional<BusDecl> range,
                    PortDir dir) {
    declareNets(base, range);
    const Symbol& s = symbols_[base];
    if (!range) {
      if (!module_->findPort(s.name).valid()) {
        module_->addPort(s.name, dir, s.net);
      }
      return;
    }
    const BusDecl decl = bus_decls_[s.bus];
    const NameId bus = s.name;
    std::uint32_t at = decl.first;
    forEachBit(decl, [&](std::int32_t b) {
      const NetId net = bus_nets_[at++];
      const NameId name = module_->net(net).name;
      if (!module_->findPort(name).valid()) {
        module_->addPort(name, dir, net, BusRef{bus, b});
      }
    });
  }

  // --- expressions -----------------------------------------------------

  /// Elaborates an expression and appends its bits, MSB first, to bits_.
  void parseExpr() {
    if (lex_.acceptPunct('{')) {
      do {
        parseExpr();
      } while (nextComma());
      expectPunct('}');
      return;
    }
    const Token t = lex_.next();
    if (t.kind == TokKind::kNumber) {
      constBits(t.text());
      return;
    }
    if (t.kind != TokKind::kIdent) fail("expected expression");
    const std::uint32_t base = symbolOf(t);
    if (lex_.acceptPunct('[')) {
      BusDecl range;
      range.msb = parseInt();
      range.lsb = range.msb;
      if (lex_.acceptPunct(':')) range.lsb = parseInt();
      expectPunct(']');
      forEachBit(range, [&](std::int32_t b) {
        bits_.push_back(BitRef{bitNet(base, b), false});
      });
      return;
    }
    if (const std::uint32_t bus = local(base).bus; bus != kNone) {
      const BusDecl& decl = bus_decls_[bus];
      const std::uint32_t width = decl.offset(decl.lsb) + 1;
      for (std::uint32_t i = 0; i < width; ++i) {
        bits_.push_back(BitRef{bus_nets_[decl.first + i], false});
      }
      return;
    }
    bits_.push_back(BitRef{netOf(base), false});
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
      const std::uint64_t radix =
          base == 'b' ? 2 : base == 'o' ? 8 : base == 'd' ? 10 : 16;
      for (const char c : digits) {
        const char lc = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
        std::uint64_t d = 0;  // x and z read as 0 in gate-level constants
        if (chars::is(c, chars::kDigit)) {
          d = static_cast<std::uint64_t>(c - '0');
        } else if (lc >= 'a' && lc <= 'f') {
          d = static_cast<std::uint64_t>(lc - 'a' + 10);
        } else if (lc != 'x' && lc != 'z') {
          fail("bad constant digit in '" + literal + "'");
        }
        if (d >= radix) {
          fail(std::string("digit '") + c + "' out of range for base '" +
               base + "' in '" + literal + "'");
        }
        if (value > (std::numeric_limits<std::uint64_t>::max() - d) / radix) {
          fail("constant value overflows 64 bits in '" + literal + "'");
        }
        value = value * radix + d;
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
    const ModuleCounts counts = countModule(lex_.rest());
    names().reserve(names().size() + counts.cells + counts.nets);
    texts_.reserve(texts_.size() + counts.nets);
    symbols_.reserve(texts_.size() + counts.nets);
    Token name = expect(TokKind::kIdent, "module name");
    ++name_probes_;  // addModule interns the name
    module_ = &design_.addModule(name.text());
    last_module_ = name.text();
    ++module_seq_;
    bus_decls_.clear();
    bus_nets_.clear();
    escaped_map_.clear();
    cell_types_.clear();
    pending_assigns_.clear();

    std::size_t header_ports = 0;
    if (lex_.acceptPunct('(')) {
      if (!peekPunct(')')) header_ports = parsePortHeader();
      expectPunct(')');
    }
    expectPunct(';');
    module_->reserve(counts.cells, counts.nets, counts.pins, header_ports);

    for (;;) {
      const Token t = lex_.next();
      if (t.kind != TokKind::kIdent) fail("expected module item");
      const Kw kw = keyword(t.text());
      if (kw == Kw::kEndmodule) break;
      parseItem(t, kw);
    }

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

  /// Parses the port list and returns how many ports it names.
  std::size_t parsePortHeader() {
    std::size_t ports = 0;
    do {
      const Token& p = lex_.peek();
      if (p.kind == TokKind::kIdent && portDir(keyword(p.text()))) {
        // ANSI style: direction [range] name {, [direction [range]] name}
        const PortDir dir = *portDir(keyword(lex_.next().text()));
        skipNetKind();
        auto range = parseOptionalRange();
        declarePorts(symbolOf(expect(TokKind::kIdent, "port name")), range,
                     dir);
      } else {
        // A non-ANSI header only names the ports; their declarations
        // follow.  Escaped names still get their simple name here, in
        // header order.
        canonName(expect(TokKind::kIdent, "port name"));
      }
      ++ports;
    } while (nextComma());
    return ports;
  }

  void parseItem(const Token& t, Kw kw) {
    if (const std::optional<PortDir> dir = portDir(kw)) {
      skipNetKind();
      auto range = parseOptionalRange();
      do {
        declarePorts(symbolOf(expect(TokKind::kIdent, "port name")), range,
                     *dir);
      } while (nextComma());
      expectPunct(';');
      return;
    }
    switch (kw) {
      case Kw::kWire:
      case Kw::kTri:
      case Kw::kReg: {
        auto range = parseOptionalRange();
        do {
          declareNets(symbolOf(expect(TokKind::kIdent, "net name")), range);
        } while (nextComma());
        expectPunct(';');
        return;
      }
      case Kw::kSupply0:
      case Kw::kSupply1: {
        const bool one = kw == Kw::kSupply1;
        do {
          const NetId id =
              netOf(symbolOf(expect(TokKind::kIdent, "net name")));
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
        // Otherwise: an instance.  t.text() is the cell/module type name.
        parseInstance(t.text());
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
    if (lex_.acceptPunct('#')) {
      expectPunct('(');
      int depth = 1;
      while (depth > 0) {
        Token t = lex_.next();
        if (t.kind == TokKind::kEof) fail("unterminated parameter list");
        if (t.kind == TokKind::kPunct && t.punct == '(') ++depth;
        if (t.kind == TokKind::kPunct && t.punct == ')') --depth;
      }
    }
    const std::string_view inst_name =
        canonName(expect(TokKind::kIdent, "instance name"));
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
          b.pin = expect(TokKind::kIdent, "pin name").text();
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
    const std::uint32_t sym = symbol(type);
    Symbol& s = local(sym);
    if (s.type == kNone) {
      s.type = static_cast<std::uint32_t>(cell_types_.size());
      CellTypeInfo& info = cell_types_.emplace_back();
      info.symbol = sym;
      // A name the table lacks names no module.
      if (!s.name.valid()) s.name = find(type);
      info.sub = s.name.valid() ? design_.findModule(s.name) : nullptr;
    }
    CellTypeInfo& info = cell_types_[s.type];
    if (info.sub == module_) {
      info = CellTypeInfo{};
      info.symbol = sym;
      info.sub = module_;
    }
    return info;
  }

  /// Width and direction of a pin of the type; consults the module
  /// definition first, then the external provider.  nullptr when unknown.
  const CellTypeInfo::Pin* resolvePin(CellTypeInfo& info,
                                      std::string_view pin) {
    for (const CellTypeInfo::Pin& p : info.pins) {
      // Pin names are a few bytes: compare them inline.
      if (p.name.size() == pin.size() &&
          std::equal(p.name.begin(), p.name.end(), pin.begin())) {
        return &p;
      }
    }
    CellTypeInfo::Pin out{pin, PortDir::kInput,
                          static_cast<std::uint32_t>(info.bits.size()), 1};
    if (const Module* sub = info.sub) {
      const NameId pin_id = find(pin);
      const PortId pid = pin_id.valid() ? sub->findPort(pin_id) : PortId{};
      if (pid.valid()) {  // scalar port
        out.dir = sub->port(pid).dir;
        info.bits.push_back({pin, sub->port(pid).name});
      } else {
        // Bus port: its bits by descending bit index (MSB first); the
        // first port declared for a bit wins, and the MSB's direction is
        // the pin's.
        std::vector<std::pair<std::int32_t, const Port*>> ports;
        for (const Port& p : sub->ports()) {
          if (pin_id.valid() && p.bus.valid() && p.bus.bus == pin_id) {
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
    } else if (const auto dir =
                   types_.pinDir(textOf(info.symbol), pin)) {
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
    const NameId inst = intern(inst_name);
    const NameId type_id = nameOf(info.symbol);
    for (std::size_t i = 0; i < pins_.size(); ++i) {
      CellTypeInfo::Bit& bit = info.bits[pin_bits_[i]];
      if (!bit.id.valid()) bit.id = intern(bit.name);
      pins_[i].name = bit.id;
    }
    module_->addCell(inst, type_id, pins_);
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
  // Every name text the read met, and its symbol by the text's id there.
  NameTable texts_;
  std::vector<Symbol> symbols_;
  std::size_t name_probes_ = 0;
  std::size_t symbol_probes_ = 0;

  Module* module_ = nullptr;
  std::string last_module_;
  // Per module (symbols are stamped with module_seq_): the declared buses
  // and their nets, escaped-name substitutions and cell type records.
  std::uint32_t module_seq_ = 0;
  std::vector<BusDecl> bus_decls_;
  std::vector<NetId> bus_nets_;
  std::unordered_map<std::string_view, NameId> escaped_map_;
  std::vector<CellTypeInfo> cell_types_;
  std::vector<PendingAssign> pending_assigns_;
  // Per statement, reused so an instance allocates nothing of its own.
  std::vector<BitRef> bits_;
  std::vector<Binding> bindings_;
  std::vector<PinConn> pins_;
  std::vector<std::uint32_t> pin_bits_;
  std::string bit_name_;
};

}  // namespace

VerilogReadStats readVerilog(Design& design, std::string_view source,
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
  return parser.stats();
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
