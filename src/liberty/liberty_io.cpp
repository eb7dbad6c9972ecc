#include "liberty/liberty_io.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "liberty/stdlib90.h"

namespace desync::liberty {
namespace {

// ------------------------------------------------------------- AST layer

/// Generic Liberty statement: either an attribute `name : value ;` or a
/// group `name (args...) { statements }`.
struct Stmt {
  std::string name;
  std::vector<std::string> args;   // group arguments
  std::string value;               // attribute value (unquoted)
  bool is_group = false;
  int line = 0;                    // 1-based source line of the name token
  std::vector<Stmt> children;
};

class LibLexer {
 public:
  explicit LibLexer(std::string_view src) : src_(src) {}

  /// Tokens: identifiers/numbers (as text), quoted strings (unquoted), and
  /// single punctuation characters `{}():;,`.
  struct Tok {
    std::string text;
    char punct = 0;  // nonzero for punctuation
    bool eof = false;
    int line = 0;
  };

  Tok next() {
    skip();
    Tok t;
    t.line = line_;
    if (pos_ >= src_.size()) {
      t.eof = true;
      return t;
    }
    char c = src_[pos_];
    if (c == '"') {
      ++pos_;
      std::string out;
      while (pos_ < src_.size() && src_[pos_] != '"') {
        if (src_[pos_] == '\\' && pos_ + 1 < src_.size() &&
            src_[pos_ + 1] == '\n') {
          pos_ += 2;  // line continuation inside string
          ++line_;
          continue;
        }
        if (src_[pos_] == '\n') ++line_;
        out.push_back(src_[pos_++]);
      }
      if (pos_ >= src_.size()) fail("unterminated string");
      ++pos_;
      t.text = std::move(out);
      return t;
    }
    static constexpr std::string_view kPunct = "{}():;,";
    if (kPunct.find(c) != std::string_view::npos) {
      ++pos_;
      t.punct = c;
      return t;
    }
    // Bareword: identifiers, numbers (incl. scientific/negative), units.
    std::size_t start = pos_;
    while (pos_ < src_.size()) {
      char d = src_[pos_];
      if (std::isspace(static_cast<unsigned char>(d)) != 0 ||
          kPunct.find(d) != std::string_view::npos || d == '"') {
        break;
      }
      ++pos_;
    }
    if (pos_ == start) fail("unexpected character");
    t.text = std::string(src_.substr(start, pos_ - start));
    return t;
  }

  [[nodiscard]] int line() const { return line_; }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw LibertyParseError("liberty:" + std::to_string(line_) + ": " + msg);
  }

  void skip() {
    for (;;) {
      while (pos_ < src_.size() &&
             std::isspace(static_cast<unsigned char>(src_[pos_])) != 0) {
        if (src_[pos_] == '\n') ++line_;
        ++pos_;
      }
      if (pos_ + 1 < src_.size() && src_[pos_] == '/' &&
          src_[pos_ + 1] == '*') {
        pos_ += 2;
        while (pos_ + 1 < src_.size() &&
               !(src_[pos_] == '*' && src_[pos_ + 1] == '/')) {
          if (src_[pos_] == '\n') ++line_;
          ++pos_;
        }
        pos_ += 2;
        continue;
      }
      if (pos_ + 1 < src_.size() && src_[pos_] == '/' &&
          src_[pos_ + 1] == '/') {
        while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
        continue;
      }
      if (pos_ < src_.size() && src_[pos_] == '\\' && pos_ + 1 < src_.size() &&
          src_[pos_ + 1] == '\n') {
        pos_ += 2;
        ++line_;
        continue;
      }
      break;
    }
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

class StmtParser {
 public:
  explicit StmtParser(std::string_view src) : lex_(src) { advance(); }

  /// Parses the whole file into a list of top-level statements.
  std::vector<Stmt> parseAll() {
    std::vector<Stmt> out;
    while (!cur_.eof) {
      out.push_back(parseStmt());
    }
    return out;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw LibertyParseError("liberty:" + std::to_string(cur_.line) + ": " +
                            msg);
  }

  void advance() { cur_ = lex_.next(); }

  Stmt parseStmt() {
    if (cur_.punct != 0 || cur_.eof) fail("expected statement name");
    Stmt s;
    s.name = cur_.text;
    s.line = cur_.line;
    advance();
    if (cur_.punct == '(') {
      s.is_group = true;
      advance();
      while (cur_.punct != ')') {
        if (cur_.eof) fail("unterminated group arguments");
        if (cur_.punct == ',') {
          advance();
          continue;
        }
        s.args.push_back(cur_.text);
        advance();
      }
      advance();  // ')'
      if (cur_.punct == '{') {
        advance();
        while (cur_.punct != '}') {
          if (cur_.eof) fail("unterminated group");
          s.children.push_back(parseStmt());
        }
        advance();  // '}'
      } else if (cur_.punct == ';') {
        advance();
      }
      return s;
    }
    if (cur_.punct == ':') {
      advance();
      // Attribute value: concatenate barewords until ';' (covers "1.0 ns").
      std::string value;
      while (cur_.punct != ';') {
        if (cur_.eof) fail("unterminated attribute");
        if (!value.empty()) value += ' ';
        value += cur_.text;
        advance();
      }
      advance();  // ';'
      s.value = std::move(value);
      return s;
    }
    if (cur_.punct == ';') {
      advance();
      return s;
    }
    fail("malformed statement after '" + s.name + "'");
  }

  LibLexer lex_;
  LibLexer::Tok cur_;
};

// ----------------------------------------------------- interpretation

// Strict numeric attribute parse.  The full value must be a number, except
// for an optional unit tail separated by a space ("1.0 ns" parses as 1.0);
// prefix garbage, trailing garbage glued to the digits ("1.0x") and
// out-of-range values all fail with the source line.
double toDouble(const Stmt& s) {
  const char* begin = s.value.c_str();
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(begin, &end);
  const bool ok =
      end != begin && errno != ERANGE && (*end == '\0' || *end == ' ');
  if (!ok) {
    throw LibertyParseError("liberty:" + std::to_string(s.line) +
                            ": bad numeric value for " + s.name + ": '" +
                            s.value + "'");
  }
  return v;
}

const Stmt* findChild(const Stmt& s, std::string_view name) {
  for (const Stmt& c : s.children) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

TimingArc interpretTiming(const Stmt& g) {
  TimingArc arc;
  ArcType type = ArcType::kCombinational;
  for (const Stmt& a : g.children) {
    if (a.name == "related_pin") {
      arc.related_pin = a.value;
    } else if (a.name == "intrinsic_rise") {
      arc.intrinsic_rise = toDouble(a);
    } else if (a.name == "intrinsic_fall") {
      arc.intrinsic_fall = toDouble(a);
    } else if (a.name == "rise_resistance") {
      arc.rise_resistance = toDouble(a);
    } else if (a.name == "fall_resistance") {
      arc.fall_resistance = toDouble(a);
    } else if (a.name == "timing_type") {
      if (a.value.rfind("setup", 0) == 0) {
        type = ArcType::kSetup;
      } else if (a.value.rfind("hold", 0) == 0) {
        type = ArcType::kHold;
      } else if (a.value.rfind("rising_edge", 0) == 0 ||
                 a.value.rfind("falling_edge", 0) == 0) {
        type = ArcType::kClockToQ;
      }
    }
  }
  arc.type = type;
  return arc;
}

LibPin interpretPin(const Stmt& g) {
  LibPin pin;
  if (g.args.empty()) throw LibertyParseError("pin group without name");
  pin.name = g.args[0];
  for (const Stmt& a : g.children) {
    if (a.name == "direction") {
      if (a.value == "input") {
        pin.dir = PinDir::kInput;
      } else if (a.value == "output") {
        pin.dir = PinDir::kOutput;
      } else {
        // inout/internal unsupported; treat as output to keep connectivity.
        pin.dir = PinDir::kOutput;
      }
    } else if (a.name == "capacitance") {
      pin.capacitance = toDouble(a);
    } else if (a.name == "max_capacitance") {
      pin.max_capacitance = toDouble(a);
    } else if (a.name == "clock") {
      pin.is_clock = (a.value == "true");
    } else if (a.name == "nextstate_type") {
      pin.nextstate_type = a.value;
    } else if (a.name == "function") {
      pin.function_str = a.value;
      pin.function = BoolExpr::parse(a.value);
    } else if (a.name == "timing" && a.is_group) {
      pin.arcs.push_back(interpretTiming(a));
    }
  }
  return pin;
}

LibCell interpretCell(const Stmt& g) {
  LibCell cell;
  if (g.args.empty()) throw LibertyParseError("cell group without name");
  cell.name = g.args[0];
  for (const Stmt& a : g.children) {
    if (a.name == "area") {
      cell.area = toDouble(a);
    } else if (a.name == "cell_leakage_power") {
      cell.leakage = toDouble(a);
    } else if (a.name == "clock_gating_integrated_cell") {
      cell.kind = CellKind::kClockGate;
    } else if ((a.name == "ff" || a.name == "latch") && a.is_group) {
      SeqInfo seq;
      if (!a.args.empty()) seq.state_var = a.args[0];
      if (a.args.size() > 1) seq.state_var_n = a.args[1];
      for (const Stmt& f : a.children) {
        if (f.name == "clocked_on") {
          seq.clocked_on = f.value;
        } else if (f.name == "next_state") {
          seq.next_state = f.value;
        } else if (f.name == "enable") {
          seq.enable = f.value;
        } else if (f.name == "data_in") {
          seq.data_in = f.value;
        } else if (f.name == "clear") {
          seq.clear = f.value;
        } else if (f.name == "preset") {
          seq.preset = f.value;
        }
      }
      cell.seq = std::move(seq);
      if (cell.kind != CellKind::kClockGate) {
        cell.kind = a.name == "ff" ? CellKind::kFlipFlop : CellKind::kLatch;
      }
    } else if (a.name == "pin" && a.is_group) {
      cell.pins.push_back(interpretPin(a));
    }
  }
  return cell;
}

}  // namespace

Library readLiberty(std::string_view text) {
  StmtParser parser(text);
  std::vector<Stmt> top = parser.parseAll();
  const Stmt* lib_stmt = nullptr;
  for (const Stmt& s : top) {
    if (s.name == "library") {
      lib_stmt = &s;
      break;
    }
  }
  if (lib_stmt == nullptr) {
    throw LibertyParseError("no library group found");
  }
  Library lib;
  if (!lib_stmt->args.empty()) lib.name = lib_stmt->args[0];
  for (const Stmt& s : lib_stmt->children) {
    if (s.name == "cell" && s.is_group) {
      lib.addCell(interpretCell(s));
    } else if (s.name == "default_wire_load_capacitance") {
      lib.default_wire_cap = toDouble(s);
    }
  }
  (void)findChild;  // reserved for future attribute lookups
  return lib;
}

Library readLibertyFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw LibertyParseError("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return readLiberty(ss.str());
}

Library loadLibrary(const std::string& spec) {
  if (spec == "builtin:hs") return makeStdLib90(LibVariant::kHighSpeed);
  if (spec == "builtin:ll") return makeStdLib90(LibVariant::kLowLeakage);
  return readLibertyFile(spec);
}

std::string writeLiberty(const Library& lib) {
  std::ostringstream out;
  out << "library (" << lib.name << ") {\n";
  out << "  delay_model : generic_cmos;\n";
  out << "  time_unit : \"1ns\";\n";
  out << "  capacitive_load_unit (1, pf);\n";
  out << "  default_wire_load_capacitance : " << lib.default_wire_cap
      << ";\n";
  lib.forEachCell([&](const LibCell& c) {
    out << "  cell (" << c.name << ") {\n";
    out << "    area : " << c.area << ";\n";
    out << "    cell_leakage_power : " << c.leakage << ";\n";
    if (c.kind == CellKind::kClockGate) {
      out << "    clock_gating_integrated_cell : latch_posedge;\n";
    }
    if (c.seq) {
      const SeqInfo& s = *c.seq;
      const bool is_latch = !s.enable.empty() || !s.data_in.empty();
      out << "    " << (is_latch ? "latch" : "ff") << " (" << s.state_var;
      if (!s.state_var_n.empty()) out << ", " << s.state_var_n;
      out << ") {\n";
      if (!s.clocked_on.empty()) {
        out << "      clocked_on : \"" << s.clocked_on << "\";\n";
      }
      if (!s.next_state.empty()) {
        out << "      next_state : \"" << s.next_state << "\";\n";
      }
      if (!s.enable.empty()) out << "      enable : \"" << s.enable << "\";\n";
      if (!s.data_in.empty()) {
        out << "      data_in : \"" << s.data_in << "\";\n";
      }
      if (!s.clear.empty()) out << "      clear : \"" << s.clear << "\";\n";
      if (!s.preset.empty()) {
        out << "      preset : \"" << s.preset << "\";\n";
      }
      out << "    }\n";
    }
    for (const LibPin& p : c.pins) {
      out << "    pin (" << p.name << ") {\n";
      out << "      direction : "
          << (p.dir == PinDir::kInput ? "input" : "output") << ";\n";
      if (p.dir == PinDir::kInput) {
        out << "      capacitance : " << p.capacitance << ";\n";
        if (p.is_clock) out << "      clock : true;\n";
        if (!p.nextstate_type.empty()) {
          out << "      nextstate_type : " << p.nextstate_type << ";\n";
        }
      } else {
        if (!p.function_str.empty()) {
          out << "      function : \"" << p.function_str << "\";\n";
        }
        if (p.max_capacitance > 0) {
          out << "      max_capacitance : " << p.max_capacitance << ";\n";
        }
      }
      for (const TimingArc& a : p.arcs) {
        out << "      timing () {\n";
        out << "        related_pin : \"" << a.related_pin << "\";\n";
        switch (a.type) {
          case ArcType::kSetup:
            out << "        timing_type : setup_rising;\n";
            break;
          case ArcType::kHold:
            out << "        timing_type : hold_rising;\n";
            break;
          case ArcType::kClockToQ:
            out << "        timing_type : rising_edge;\n";
            break;
          case ArcType::kCombinational:
            break;
        }
        out << "        intrinsic_rise : " << a.intrinsic_rise << ";\n";
        out << "        intrinsic_fall : " << a.intrinsic_fall << ";\n";
        out << "        rise_resistance : " << a.rise_resistance << ";\n";
        out << "        fall_resistance : " << a.fall_resistance << ";\n";
        out << "      }\n";
      }
      out << "    }\n";
    }
    out << "  }\n";
  });
  out << "}\n";
  return out.str();
}

void writeLibertyFile(const Library& lib, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw LibertyParseError("cannot open for write: " + path);
  out << writeLiberty(lib);
}

}  // namespace desync::liberty
