// Edge-case tests for the Verilog reader/writer, Liberty parser and the
// STA/simulator cross-properties.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "liberty/gatefile.h"
#include "liberty/liberty_io.h"
#include "liberty/stdlib90.h"
#include "netlist/verilog.h"
#include "sim/simulator.h"
#include "sta/sdc.h"
#include "sta/sta.h"
#include "util/rng.h"

namespace nl = desync::netlist;
namespace lib = desync::liberty;
namespace sim = desync::sim;
namespace sta = desync::sta;

using sim::Val;

namespace {

const lib::Gatefile& gf() {
  static const lib::Library l = lib::makeStdLib90(lib::LibVariant::kHighSpeed);
  static const lib::Gatefile g(l);
  return g;
}

// --------------------------------------------------------- verilog edges

TEST(VerilogEdge, PartSelectAndConcat) {
  const char* src = R"(
    module top (a, z);
      input [3:0] a;
      output [3:0] z;
      wire [3:0] t;
      assign t = {a[1:0], a[3:2]};
      assign z = t;
    endmodule
  )";
  nl::Design d;
  nl::readVerilog(d, src, gf());
  // z[3] <- t[3] <- a[1] (concat is MSB-first: {a[1:0], a[3:2]} puts a[1]
  // at the top).
  nl::Module& m = d.top();
  nl::PortId z3 = m.findPort("z[3]");
  ASSERT_TRUE(z3.valid());
  EXPECT_EQ(m.netName(m.port(z3).net), "a[1]");
}

TEST(VerilogEdge, PositionalConnectionToSubmodule) {
  const char* src = R"(
    module leaf (i, o);
      input i;
      output o;
      IV g (.A(i), .Z(o));
    endmodule
    module top (a, z);
      input a;
      output z;
      leaf l1 (a, z);
    endmodule
  )";
  nl::Design d;
  nl::readVerilog(d, src, gf(), {}, "top");
  nl::CellId l1 = d.top().findCell("l1");
  ASSERT_TRUE(l1.valid());
  EXPECT_EQ(d.top().pinNet(l1, "i"), d.top().findNet("a"));
  EXPECT_EQ(d.top().pinNet(l1, "o"), d.top().findNet("z"));
}

TEST(VerilogEdge, ParameterListsAreSkipped) {
  const char* src = R"(
    module leaf (i, o);
      input i; output o;
      IV g (.A(i), .Z(o));
    endmodule
    module top (a, z);
      input a; output z;
      leaf #(.WIDTH(8), .DEPTH(2)) l1 (.i(a), .o(z));
    endmodule
  )";
  nl::Design d;
  nl::readVerilog(d, src, gf(), {}, "top");
  EXPECT_TRUE(d.top().findCell("l1").valid());
}

TEST(VerilogEdge, SupplyNets) {
  const char* src = R"(
    module top (z);
      output z;
      supply1 vdd;
      supply0 gnd;
      AN2 u (.A(vdd), .B(gnd), .Z(z));
    endmodule
  )";
  nl::Design d;
  nl::readVerilog(d, src, gf());
  EXPECT_EQ(d.top().net(d.top().findNet("vdd")).driver.kind,
            nl::TermKind::kConst1);
  EXPECT_EQ(d.top().net(d.top().findNet("gnd")).driver.kind,
            nl::TermKind::kConst0);
}

TEST(VerilogEdge, MultiBitConstantInConcat) {
  const char* src = R"(
    module top (z);
      output [3:0] z;
      assign z = {2'b10, 2'b01};
    endmodule
  )";
  nl::Design d;
  nl::readVerilog(d, src, gf());
  // z = 4'b1001 (MSB-first concat).
  auto bit = [&](int i) {
    return d.top().net(d.top().port(d.top().findPort(
        "z[" + std::to_string(i) + "]")).net).driver.kind;
  };
  EXPECT_EQ(bit(3), nl::TermKind::kConst1);
  EXPECT_EQ(bit(2), nl::TermKind::kConst0);
  EXPECT_EQ(bit(1), nl::TermKind::kConst0);
  EXPECT_EQ(bit(0), nl::TermKind::kConst1);
}

TEST(VerilogEdge, CommentsAndDirectives) {
  const char* src =
      "`timescale 1ns/1ps\n"
      "/* block\n comment */\n"
      "module top (a, z); // line comment\n"
      "  input a; output z;\n"
      "  IV g (.A(a), .Z(z));\n"
      "endmodule\n";
  nl::Design d;
  nl::readVerilog(d, src, gf());
  EXPECT_EQ(d.top().numCells(), 1u);
}

TEST(VerilogEdge, UnconnectedAndImplicitNets) {
  const char* src = R"(
    module top (a, z);
      input a; output z;
      ND2 u1 (.A(a), .B(implicit_net), .Z(z));
      IV u2 (.A(a), .Z(implicit_net));
    endmodule
  )";
  nl::Design d;
  nl::readVerilog(d, src, gf());
  EXPECT_TRUE(d.top().findNet("implicit_net").valid());
  EXPECT_TRUE(d.top().checkInvariants().empty());
}

TEST(VerilogEdge, WriterEscapesHierarchicalNames) {
  nl::Design d;
  nl::Module& m = d.addModule("top");
  nl::NetId a = m.addNet("ctl0/u_g/z");  // slash needs escaping
  nl::NetId z = m.addNet("z");
  m.addPort("z", nl::PortDir::kOutput, z);
  m.addCell("ctl0/u_g", "IV",
            {{"A", nl::PortDir::kInput, z}, {"Z", nl::PortDir::kOutput, a}});
  std::string text = nl::writeVerilog(m);
  EXPECT_NE(text.find("\\ctl0/u_g "), std::string::npos);
  // Round-trips (escaped names are simplified on read by default).
  nl::Design d2;
  nl::readVerilog(d2, text, gf());
  EXPECT_EQ(d2.top().numCells(), 1u);
}

// ----------------------------------------------------------- lexer edges
//
// Byte-level cases of the table-driven lexer.  Each result, message and
// line number is the one the reader gave when it lexed with <cctype> and
// a std::string per token.

/// The VerilogError message reading `src` raises, or "" when it parses.
std::string readError(const std::string& src) {
  nl::Design d;
  try {
    nl::readVerilog(d, src, gf());
  } catch (const nl::VerilogError& e) {
    return e.what();
  }
  return "";
}

TEST(VerilogLexEdge, HighByteOutsideEscapedNameIsUnexpected) {
  EXPECT_EQ(
      readError("module top (a);\n  input a;\n  \xC3\xA9 x;\nendmodule\n"),
      "verilog:3: unexpected character '\xC3'");
  // A byte >= 0x80 also ends a plain identifier.
  EXPECT_EQ(readError("module top (a);\n  input a;\n  wire b\xC3\xA9;\n"),
            "verilog:3: unexpected character '\xC3'");
  // Inside an escaped identifier it is just another name byte.
  EXPECT_EQ(readError("module top (a);\n  input a;\n  wire \\b\xC3\xA9 ;\n"
                      "endmodule\n"),
            "");
}

TEST(VerilogLexEdge, DollarContinuesButDoesNotStartAnIdentifier) {
  const std::string src =
      "module top (a$b, z);\n  input a$b;\n  output z;\n"
      "  IV g$1 (.A(a$b), .Z(z));\nendmodule\n";
  nl::Design d;
  nl::readVerilog(d, src, gf());
  EXPECT_TRUE(d.top().findNet("a$b").valid());
  EXPECT_TRUE(d.top().findCell("g$1").valid());
  EXPECT_EQ(nl::writeVerilog(d), src);
  EXPECT_EQ(readError("module top (a);\n  input a;\n  wire $x;\nendmodule\n"),
            "verilog:3: unexpected character '$'");
}

TEST(VerilogLexEdge, EscapedIdentifierEndingAtEof) {
  nl::Design d;
  try {
    nl::readVerilog(d, "module top (a);\n  input a;\nendmodule\nmodule \\m2",
                    gf());
    FAIL() << "expected VerilogError";
  } catch (const nl::VerilogError& e) {
    EXPECT_STREQ(e.what(), "verilog:4: expected ';'");
  }
  EXPECT_NE(d.findModule("m2"), nullptr);  // the name ran to the last byte
}

TEST(VerilogLexEdge, LineCommentAtEofWithoutNewline) {
  nl::Design d;
  nl::readVerilog(d,
                  "module top (a, z);\n  input a;\n  output z;\n"
                  "  IV g (.A(a), .Z(z));\nendmodule\n// trailing comment",
                  gf());
  EXPECT_EQ(d.top().numCells(), 1u);
}

TEST(VerilogLexEdge, CrlfCountsOneLinePerLine) {
  EXPECT_EQ(readError("module top (a, z);\r\n  input a;\r\n  output z;\r\n"
                      "  IV g (.A(a) .Z(z));\r\nendmodule\r\n"),
            "verilog:4: expected ')'");
  EXPECT_EQ(readError("module top (a, z);\r\n  input a;\r\n  output z;\r\n"
                      "  IV g (.A(a), .Z(z));\r\nendmodule\r\n"),
            "");
}

TEST(VerilogLexEdge, UnderscoreXAndZDigitsInBasedNumbers) {
  // '_' separates digits; x and z read as 0.
  auto bits = [](const char* literal) {
    nl::Design d;
    nl::readVerilog(d,
                    std::string("module top (z);\n  output [7:0] z;\n"
                                "  assign z = ") +
                        literal + ";\nendmodule\n",
                    gf());
    std::string out;
    for (int i = 7; i >= 0; --i) {
      const nl::Module& m = d.top();
      const nl::PortId p = m.findPort("z[" + std::to_string(i) + "]");
      out += m.net(m.port(p).net).driver.kind == nl::TermKind::kConst1 ? '1'
                                                                       : '0';
    }
    return out;
  };
  EXPECT_EQ(bits("8'b1_0x1_z01z"), "10010010");
  EXPECT_EQ(bits("8'hx_5"), "00000101");
  EXPECT_EQ(bits("8'bZX_1"), "00000001");
}

TEST(VerilogLexEdge, IdentifiersThatStartWithAKeyword) {
  nl::Design d;
  nl::readVerilog(d,
                  "module moduleA (wire_x, z);\n  input wire_x;\n  output z;\n"
                  "  wire inputs, endmodule_n;\n"
                  "  IV assign_g (.A(wire_x), .Z(inputs));\n"
                  "  IV g2 (.A(inputs), .Z(z));\nendmodule\n",
                  gf());
  ASSERT_NE(d.findModule("moduleA"), nullptr);
  const nl::Module& m = *d.findModule("moduleA");
  EXPECT_TRUE(m.findPort("wire_x").valid());
  EXPECT_TRUE(m.findNet("inputs").valid());
  EXPECT_TRUE(m.findNet("endmodule_n").valid());
  EXPECT_TRUE(m.findCell("assign_g").valid());
  EXPECT_EQ(m.numCells(), 2u);
}

TEST(VerilogLexEdge, UnterminatedBlockCommentReportsItsLastLine) {
  // The line is counted up to the byte before the end of the text.
  EXPECT_EQ(readError("module top (a);\n  input a;\n/* never\n closed\n\n"),
            "verilog:5: unterminated block comment");
  EXPECT_EQ(readError("module top (a);\n  input a;\n/* never"),
            "verilog:3: unterminated block comment");
  EXPECT_EQ(readError("module top (a);\n  input a;\n/*\n"),
            "verilog:3: unterminated block comment");
}

TEST(VerilogEdge, EveryDiagnosticKeepsItsTextAndLine) {
  // One small input per message the reader can raise, with its exact text
  // and line.  Assign folding runs at `endmodule`, so its messages carry
  // that line; a netlist database error carries the line of the statement
  // that raised it.
  const std::string head = "module top (a, z);\n  input a;\n  output z;\n";
  const std::string sub =
      "module sub (x, y);\n  input [1:0] x;\n  output y;\nendmodule\n";
  struct Case {
    std::string src;
    std::string message;
  };
  const Case cases[] = {
      // Lexer.
      {head + "  IV g (.A(a), .Z(z)) / 2;\n",
       "verilog:4: unexpected character '/'"},
      {head + "/* open\n", "verilog:4: unterminated block comment"},
      // Tokens the grammar expects.
      {"wire a;\n", "verilog:1: expected keyword 'module'"},
      {"module ;\n", "verilog:1: expected module name"},
      {"module top (a z);\n", "verilog:1: expected ')'"},
      {head + "  IV g (.A(a), .Z(z))\nendmodule\n", "verilog:5: expected ';'"},
      {"module top (input ;\n", "verilog:1: expected port name"},
      {head + "  wire ;\n", "verilog:4: expected net name"},
      {head + "  wire [a:0] w;\n", "verilog:4: expected integer"},
      {head + "  ;\n", "verilog:4: expected module item"},
      {head + "  IV (.A(a), .Z(z));\n", "verilog:4: expected instance name"},
      {head + "  IV g (.(a), .Z(z));\n", "verilog:4: expected pin name"},
      {head + "  IV g (.A(;), .Z(z));\n", "verilog:4: expected expression"},
      {head + "  IV #(1 g (.A(a), .Z(z));\n",
       "verilog:5: unterminated parameter list"},
      {head + "  wire [99999999999:0] w;\n",
       "verilog:4: bad integer '99999999999'"},
      // Constants.
      {head + "  assign z = 99999999999999999999;\n",
       "verilog:4: bad constant '99999999999999999999'"},
      {head + "  assign z = 0'b0;\n", "verilog:4: bad constant width in '0'b0'"},
      {head + "  assign z = 5000'b0;\n",
       "verilog:4: constant width 5000 exceeds 4096 in '5000'b0'"},
      {head + "  assign z = 8'", "verilog:4: missing base in constant '8''"},
      {head + "  assign z = 8'q0;\n",
       "verilog:4: bad constant base 'q' in '8'q0'"},
      {head + "  assign z = 4'b_;\n",
       "verilog:4: missing digits in constant '4'b_'"},
      {head + "  assign z = 4'b1g;\n",
       "verilog:4: bad constant digit in '4'b1g'"},
      {head + "  assign z = 4'b2;\n",
       "verilog:4: digit '2' out of range for base 'b' in '4'b2'"},
      {head + "  assign z = 72'hFFFFFFFFFFFFFFFFF;\n",
       "verilog:4: constant value overflows 64 bits in "
       "'72'hFFFFFFFFFFFFFFFFF'"},
      // Instances.
      {head + "  IV g (.Q(a), .Z(z));\n",
       "verilog:4: unknown pin 'Q' on cell type 'IV'"},
      {sub + head + "  sub s (.x(a), .y(z));\nendmodule\n",
       "verilog:8: width mismatch on pin 'x' of 'sub'"},
      {head + "  IV g (a, z, a);\n",
       "verilog:4: positional connection count exceeds pins of IV"},
      // Assigns.
      {head + "  wire [1:0] w;\n  assign w = a;\nendmodule\n",
       "verilog:5: assign width mismatch"},
      {head + "  assign 1'b0 = a;\nendmodule\n", "verilog:4: assign to constant"},
      {head + "  IV g (.A(a), .Z(z));\n  assign z = a;\nendmodule\n",
       "verilog:6: cannot fold assign onto driven net z"},
      {head + "  IV g (.A(a), .Z(z));\n  assign z = 1'b0;\nendmodule\n",
       "verilog:6: assign target already driven: z"},
      // Netlist database errors, with the line of their statement.
      {head + "  wire y;\n  IV u1 (.A(a), .Z(y));\n  IV u1 (.A(a), .Z(z));\n",
       "verilog:6: duplicate cell name: u1"},
      {head + "  IV u1 (.A(a), .Z(z));\n  IV u2 (.A(a), .Z(z));\n",
       "verilog:5: net 'z' has multiple drivers"},
      {"module t;\nendmodule\nmodule t;\nendmodule\n",
       "verilog:3: duplicate module name: t"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(readError(c.src), c.message) << c.src;
  }
}

// --------------------------------------------------------- liberty edges

TEST(LibertyEdge, LineContinuationsAndEscapes) {
  const char* text =
      "library (x) {\n"
      "  cell (B1) {\n"
      "    area : 1.0;\n"
      "    pin (A) { direction : input; capacitance : 0.001; }\n"
      "    pin (Z) { direction : output; function : \"A\"; }\n"
      "  }\n"
      "}\n";
  lib::Library l = lib::readLiberty(text);
  EXPECT_EQ(l.size(), 1u);
  lib::Gatefile g(l);
  EXPECT_TRUE(g.isBuffer("B1"));
}

TEST(LibertyEdge, GatefileRoundTripsThroughLibertyText) {
  // Library -> text -> parse -> gatefile must classify identically.
  lib::Library l1 = lib::makeStdLib90(lib::LibVariant::kHighSpeed);
  lib::Library l2 = lib::readLiberty(lib::writeLiberty(l1));
  lib::Gatefile g1(l1), g2(l2);
  l1.forEachCell([&](const lib::LibCell& c) {
    EXPECT_EQ(g1.kind(c.name), g2.kind(c.name)) << c.name;
    const lib::SeqClass* s1 = g1.seqClass(c.name);
    const lib::SeqClass* s2 = g2.seqClass(c.name);
    ASSERT_EQ(s1 == nullptr, s2 == nullptr) << c.name;
    if (s1 != nullptr) {
      EXPECT_EQ(s1->clock_pin, s2->clock_pin) << c.name;
      EXPECT_EQ(s1->data_pin, s2->data_pin) << c.name;
      EXPECT_EQ(s1->scan_enable, s2->scan_enable) << c.name;
      EXPECT_EQ(s1->sync_pin, s2->sync_pin) << c.name;
      EXPECT_EQ(s1->async_clear_pin, s2->async_clear_pin) << c.name;
    }
  });
}

// ------------------------------------------- STA vs simulation property

/// Builds a pseudo-random combinational DAG over the library gates and
/// checks that the simulator's settle time never exceeds the STA critical
/// path (conservativeness property of static analysis).
class StaConservative : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StaConservative, SimSettleWithinStaBound) {
  desync::util::Rng rng{GetParam()};
  const std::vector<std::string> gates = {"IV", "ND2",  "NR2",   "AN2",
                                          "OR2", "EO",  "AOI21", "MUX21"};
  nl::Design d;
  nl::Module& m = d.addModule("rand");
  std::vector<nl::NetId> pool;
  for (int i = 0; i < 4; ++i) {
    nl::NetId n = m.addNet("in" + std::to_string(i));
    m.addPort("in" + std::to_string(i), nl::PortDir::kInput, n);
    pool.push_back(n);
  }
  for (int g = 0; g < 40; ++g) {
    const std::string& type = gates[rng.below(gates.size())];
    const lib::LibCell& cell = gf().library().cell(type);
    std::vector<nl::Module::PinInit> pins;
    for (const std::string& in : cell.inputPins()) {
      pins.push_back({in, nl::PortDir::kInput,
                      pool[rng.below(pool.size())]});
    }
    nl::NetId out = m.addNet("g" + std::to_string(g));
    pins.push_back({"Z", nl::PortDir::kOutput, out});
    m.addCell("u" + std::to_string(g), type, pins);
    pool.push_back(out);
  }
  m.addPort("out", nl::PortDir::kOutput, pool.back());

  sta::Sta analysis(m, gf());

  sim::Simulator s(m, gf());
  // Per-net settle instrumentation: every observed transition must respect
  // the net's static arrival time.
  std::map<std::string, sim::Time> settle;
  m.forEachNet([&](nl::NetId id) {
    std::string name(m.netName(id));
    s.watchNet(name,
               [&settle, name](sim::Time t, Val) { settle[name] = t; });
  });
  for (int i = 0; i < 4; ++i) {
    s.setInput("in" + std::to_string(i), Val::k0);
  }
  s.runUntilStable(s.now() + sim::nsToPs(1000));
  for (int trial = 0; trial < 12; ++trial) {
    settle.clear();
    sim::Time start = s.now();
    for (int i = 0; i < 4; ++i) {
      s.setInput("in" + std::to_string(i),
                 sim::fromBool(rng.chance(50)));
    }
    s.runUntilStable(start + sim::nsToPs(1000));
    for (const auto& [name, t] : settle) {
      const double settle_ns = sim::psToNs(t - start);
      auto arrival = analysis.arrivalNs(name);
      ASSERT_TRUE(arrival.has_value()) << name;
      EXPECT_LE(settle_ns, *arrival + 0.01)
          << "net " << name << " settled later than its STA arrival";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaConservative,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

// ------------------------------------------------- malformed-input edges

TEST(SdcEdge, MalformedPeriodReportsSourceLine) {
  const std::string text =
      "# constraints\n"
      "create_clock -name c -period 1.2x [get_ports {clk}]\n";
  try {
    sta::SdcFile::parse(text);
    FAIL() << "expected SdcError";
  } catch (const sta::SdcError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("SDC line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("1.2x"), std::string::npos) << what;
  }
}

TEST(SdcEdge, MissingPeriodValueRejected) {
  EXPECT_THROW(sta::SdcFile::parse("create_clock -name c -period\n"),
               sta::SdcError);
}

TEST(SdcEdge, WellFormedFileStillParses) {
  sta::SdcFile sdc = sta::SdcFile::parse(
      "create_clock -name c -period 2.5 [get_ports {clk}]\n");
  ASSERT_EQ(sdc.clocks.size(), 1u);
  EXPECT_DOUBLE_EQ(sdc.clocks[0].period_ns, 2.5);
}

TEST(LibertyEdge, MalformedNumericAttributeReportsSourceLine) {
  const char* text =
      "library (x) {\n"
      "  cell (B1) {\n"
      "    area : bogus;\n"
      "  }\n"
      "}\n";
  try {
    lib::readLiberty(text);
    FAIL() << "expected LibertyParseError";
  } catch (const lib::LibertyParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("liberty:3"), std::string::npos) << what;
    EXPECT_NE(what.find("area"), std::string::npos) << what;
  }
}

TEST(LibertyEdge, GluedUnitSuffixRejected) {
  EXPECT_THROW(lib::readLiberty("library (x) {\n"
                                "  cell (B1) { area : 1.0x; }\n"
                                "}\n"),
               lib::LibertyParseError);
}

TEST(LibertyEdge, NumericAttributeWithUnitTailAccepted) {
  lib::Library l = lib::readLiberty(
      "library (x) {\n"
      "  default_wire_load_capacitance : 0.002 pF;\n"
      "}\n");
  EXPECT_DOUBLE_EQ(l.default_wire_cap, 0.002);
}

TEST(LibertyEdge, GatefileBadAreaReportsSourceLine) {
  try {
    lib::Gatefile::parseText("# library=std90\ncell N2 ND2 area=12x\n");
    FAIL() << "expected LibraryError";
  } catch (const lib::LibraryError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gatefile:2"), std::string::npos) << what;
    EXPECT_NE(what.find("12x"), std::string::npos) << what;
  }
}

TEST(VerilogEdge, HugeConstantWidthRejected) {
  const char* src =
      "module top (z);\n"
      "  output z;\n"
      "  assign z = 1000000'b0;\n"
      "endmodule\n";
  nl::Design d;
  try {
    nl::readVerilog(d, src, gf());
    FAIL() << "expected VerilogError";
  } catch (const nl::VerilogError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("width"), std::string::npos) << what;
    EXPECT_NE(what.find("verilog:3"), std::string::npos) << what;
  }
}

TEST(VerilogEdge, ConstantDigitOutOfRadixRejected) {
  const char* src = "module top (z); output z; assign z = 4'b2; endmodule\n";
  nl::Design d;
  EXPECT_THROW(nl::readVerilog(d, src, gf()), nl::VerilogError);
}

TEST(VerilogEdge, ConstantBadBaseRejected) {
  const char* src = "module top (z); output z; assign z = 8'q0; endmodule\n";
  nl::Design d;
  EXPECT_THROW(nl::readVerilog(d, src, gf()), nl::VerilogError);
}

TEST(VerilogEdge, ConstantMissingBaseRejected) {
  const char* src = "module top (z); output z; assign z = 8'; endmodule\n";
  nl::Design d;
  EXPECT_THROW(nl::readVerilog(d, src, gf()), nl::VerilogError);
}

TEST(VerilogEdge, ConstantValueOverflowRejected) {
  // 17 hex digits = 68 value bits: more than the 64-bit constant value the
  // gate-level reader supports, even though the declared width would fit.
  const char* src =
      "module top (z);\n"
      "  output z;\n"
      "  assign z = 72'hFFFFFFFFFFFFFFFFF;\n"
      "endmodule\n";
  nl::Design d;
  EXPECT_THROW(nl::readVerilog(d, src, gf()), nl::VerilogError);
}

TEST(VerilogEdge, GarbageWidthPrefixRejected) {
  // `x'b0` lexes as identifier `x` followed by the tick literal — it must
  // surface as a parse error, not silently read as a constant.
  const char* src = "module top (z); output z; assign z = x'b0; endmodule\n";
  nl::Design d;
  EXPECT_THROW(nl::readVerilog(d, src, gf()), nl::VerilogError);
}

TEST(VerilogEdge, WideZeroPaddedConstantParses) {
  // Widths above 64 are fine as long as the value itself fits in 64 bits;
  // the upper bits read as constant zero.
  const char* src =
      "module top (z);\n"
      "  output [69:0] z;\n"
      "  assign z = 70'h5;\n"
      "endmodule\n";
  nl::Design d;
  nl::readVerilog(d, src, gf());
  nl::Module& m = d.top();
  EXPECT_TRUE(m.findPort("z[69]").valid());
  EXPECT_TRUE(m.findPort("z[0]").valid());
}

}  // namespace
