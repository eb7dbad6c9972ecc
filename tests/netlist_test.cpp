// Unit tests for the netlist database, Verilog IO, cleaning and flattening.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>

#include "liberty/gatefile.h"
#include "liberty/stdlib90.h"
#include "netlist/blif.h"
#include "netlist/cleaning.h"
#include "netlist/flatten.h"
#include "netlist/netlist.h"
#include "netlist/verilog.h"
#include "util/rng.h"

namespace nl = desync::netlist;
namespace lib = desync::liberty;

namespace {

/// Shared gatefile over the synthetic HS library.
const lib::Gatefile& gatefile() {
  static const lib::Library library =
      lib::makeStdLib90(lib::LibVariant::kHighSpeed);
  static const lib::Gatefile gf(library);
  return gf;
}

TEST(NameTable, InternIsIdempotent) {
  nl::NameTable t;
  nl::NameId a = t.intern("foo");
  nl::NameId b = t.intern("foo");
  EXPECT_EQ(a, b);
  EXPECT_EQ(t.str(a), "foo");
  EXPECT_FALSE(t.find("bar").valid());
}

TEST(NameTable, ManyNamesStayStable) {
  nl::NameTable t;
  std::vector<nl::NameId> ids;
  for (int i = 0; i < 5000; ++i) {
    ids.push_back(t.intern("n" + std::to_string(i)));
  }
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(t.str(ids[static_cast<std::size_t>(i)]),
              "n" + std::to_string(i));
  }
}

TEST(NameTable, ViewsSurviveGrowthAndMoves) {
  // str() points into fixed arena blocks: a view stays valid, with the same
  // bytes at the same address, however far the table grows or wherever it
  // is moved.  The ASan twin of this suite catches a view into freed
  // storage.
  nl::NameTable t;
  const nl::NameId first = t.intern("first_name_longer_than_any_sso_buffer");
  const std::string_view view = t.str(first);
  for (int i = 0; i < 100000; ++i) t.intern("grow_" + std::to_string(i));
  EXPECT_EQ(view, "first_name_longer_than_any_sso_buffer");
  EXPECT_EQ(t.str(first).data(), view.data());
  EXPECT_EQ(t.size(), 100001u);
  const nl::NameTable moved = std::move(t);
  EXPECT_EQ(view, "first_name_longer_than_any_sso_buffer");
  EXPECT_EQ(moved.find("grow_99999"), nl::NameId{100000});
}

TEST(NameIndex, MatchesAMapUnderInsertAndErase) {
  // Deterministic mix of inserts and erases (the erase path shifts later
  // entries of a probe run back), checked against std::map after each step.
  nl::NameIndex index;
  std::map<std::uint32_t, std::uint32_t> ref;
  desync::util::Rng rng{12345};
  for (std::uint32_t step = 0; step < 20000; ++step) {
    const nl::NameId key{static_cast<std::uint32_t>(rng.below(3000))};
    if (rng.chance(33)) {
      index.erase(key);
      ref.erase(key.value);
    } else {
      EXPECT_EQ(index.insert(key, step), ref.emplace(key.value, step).second);
    }
    const nl::NameId probe{static_cast<std::uint32_t>(rng.below(3000))};
    const auto it = ref.find(probe.value);
    ASSERT_EQ(index.find(probe),
              it == ref.end() ? nl::NameIndex::kNone : it->second);
  }
  for (std::uint32_t k = 0; k < 3000; ++k) {
    const auto it = ref.find(k);
    EXPECT_EQ(index.find(nl::NameId{k}),
              it == ref.end() ? nl::NameIndex::kNone : it->second);
  }
}

TEST(NameTable, MakeUniqueAvoidsCollision) {
  nl::NameTable t;
  t.intern("x");
  nl::NameId u = t.makeUnique("x");
  EXPECT_NE(t.str(u), "x");
  EXPECT_TRUE(t.find(t.str(u)).valid());
}

TEST(Module, ConnectivityBookkeeping) {
  nl::Design d;
  nl::Module& m = d.addModule("top");
  nl::NetId a = m.addNet("a");
  nl::NetId z = m.addNet("z");
  nl::CellId inv = m.addCell("u1", "IV",
                             {{"A", nl::PortDir::kInput, a},
                              {"Z", nl::PortDir::kOutput, z}});
  EXPECT_EQ(m.net(z).driver.cell(), inv);
  ASSERT_EQ(m.sinks(a).size(), 1u);
  EXPECT_EQ(m.sinks(a)[0].cell(), inv);
  EXPECT_TRUE(m.checkInvariants().empty());

  m.removeCell(inv);
  EXPECT_EQ(m.net(z).driver.kind, nl::TermKind::kNone);
  EXPECT_TRUE(m.sinks(a).empty());
  EXPECT_EQ(m.numCells(), 0u);
  EXPECT_TRUE(m.checkInvariants().empty());
}

TEST(Module, DoubleDriverThrows) {
  nl::Design d;
  nl::Module& m = d.addModule("top");
  nl::NetId a = m.addNet("a");
  nl::NetId z = m.addNet("z");
  m.addCell("u1", "IV",
            {{"A", nl::PortDir::kInput, a}, {"Z", nl::PortDir::kOutput, z}});
  EXPECT_THROW(m.addCell("u2", "IV",
                         {{"A", nl::PortDir::kInput, a},
                          {"Z", nl::PortDir::kOutput, z}}),
               nl::NetlistError);
}

TEST(Module, DuplicateNamesThrow) {
  nl::Design d;
  nl::Module& m = d.addModule("top");
  m.addNet("a");
  EXPECT_THROW(m.addNet("a"), nl::NetlistError);
  m.addCell("u1", "IV", {});
  EXPECT_THROW(m.addCell("u1", "IV", {}), nl::NetlistError);
}

TEST(Module, MergeNetMovesSinksAndPorts) {
  nl::Design d;
  nl::Module& m = d.addModule("top");
  nl::NetId a = m.addNet("a");
  nl::NetId b = m.addNet("b");
  m.addCell("u1", "IV",
            {{"A", nl::PortDir::kInput, b}, {"Z", nl::PortDir::kOutput, {}}});
  m.addPort("out", nl::PortDir::kOutput, b);
  m.mergeNetInto(b, a);
  EXPECT_EQ(m.sinks(a).size(), 2u);
  EXPECT_EQ(m.numNets(), 1u);
  EXPECT_TRUE(m.checkInvariants().empty());
}

// --- differential mutation test -------------------------------------------
//
// Seeded random edit sequences applied to a Module and to a plain
// vector-of-vectors reference model of its connectivity.  After every step
// the sink order of every live net, the pins of every live cell and the
// invariants must agree.  Few nets and many pins drive sink segments well
// past several doublings (each one a move to the end of the pool).

struct RefNet {
  bool live = true;
  nl::TermRef driver;
  std::vector<nl::TermRef> sinks;
};

struct RefModel {
  std::vector<RefNet> nets;
  std::vector<std::vector<nl::PinConn>> pins;  // by cell; empty = removed
  std::vector<bool> cell_live;
  std::vector<nl::NetId> port_net;  // output ports only

  static void eraseFirst(std::vector<nl::TermRef>& v, nl::TermRef t) {
    const auto it = std::find(v.begin(), v.end(), t);
    if (it != v.end()) v.erase(it);
  }
  static nl::TermRef pinTerm(std::uint32_t cell, std::size_t pin) {
    return nl::TermRef{nl::TermKind::kCellPin, cell,
                       static_cast<std::uint16_t>(pin)};
  }
  void attach(nl::NetId net, nl::TermRef t, nl::PortDir dir) {
    if (dir == nl::PortDir::kOutput) {
      nets[net.index()].driver = t;
    } else {
      nets[net.index()].sinks.push_back(t);
    }
  }
  void disconnect(std::uint32_t cell, std::size_t pin) {
    nl::PinConn& p = pins[cell][pin];
    if (!p.net.valid()) return;
    RefNet& n = nets[p.net.index()];
    if (p.dir == nl::PortDir::kOutput && n.driver == pinTerm(cell, pin)) {
      n.driver = nl::TermRef{};
    } else {
      eraseFirst(n.sinks, pinTerm(cell, pin));
    }
    p.net = nl::NetId{};
  }
  void connect(std::uint32_t cell, std::size_t pin, nl::NetId net) {
    disconnect(cell, pin);
    pins[cell][pin].net = net;
    attach(net, pinTerm(cell, pin), pins[cell][pin].dir);
  }
  void removeNet(nl::NetId id) {
    RefNet& n = nets[id.index()];
    if (n.driver.isCellPin()) pins[n.driver.index][n.driver.pin].net = {};
    for (const nl::TermRef& t : n.sinks) {
      if (t.isCellPin()) pins[t.index][t.pin].net = {};
      if (t.isPort()) port_net[t.index] = {};
    }
    n = RefNet{};
    n.live = false;
  }
};

/// Every live net's driver and sink order, every live cell's pins, every
/// port's net and the module's invariants agree with the model.
::testing::AssertionResult sameAsModel(const nl::Module& m,
                                       const RefModel& ref) {
  const std::vector<std::string> problems = m.checkInvariants();
  if (!problems.empty()) {
    return ::testing::AssertionFailure() << "invariant: " << problems[0];
  }
  for (std::uint32_t i = 0; i < ref.nets.size(); ++i) {
    const nl::NetId id{i};
    if (!ref.nets[i].live) continue;
    if (!(m.net(id).driver == ref.nets[i].driver)) {
      return ::testing::AssertionFailure() << "driver of net " << i;
    }
    const std::span<const nl::TermRef> got = m.sinks(id);
    if (!std::equal(got.begin(), got.end(), ref.nets[i].sinks.begin(),
                    ref.nets[i].sinks.end())) {
      return ::testing::AssertionFailure() << "sinks of net " << i;
    }
  }
  for (std::uint32_t c = 0; c < ref.pins.size(); ++c) {
    if (m.isLiveCell(nl::CellId{c}) != ref.cell_live[c]) {
      return ::testing::AssertionFailure() << "liveness of cell " << c;
    }
    if (!ref.cell_live[c]) continue;
    const std::span<const nl::PinConn> got = m.pins(nl::CellId{c});
    const std::vector<nl::PinConn>& want = ref.pins[c];
    if (got.size() != want.size()) {
      return ::testing::AssertionFailure() << "pin count of cell " << c;
    }
    for (std::size_t p = 0; p < want.size(); ++p) {
      if (got[p].name != want[p].name || got[p].dir != want[p].dir ||
          got[p].net != want[p].net) {
        return ::testing::AssertionFailure() << "pin " << p << " of cell "
                                             << c;
      }
    }
  }
  for (std::uint32_t p = 0; p < ref.port_net.size(); ++p) {
    if (m.port(nl::PortId{p}).net != ref.port_net[p]) {
      return ::testing::AssertionFailure() << "net of port " << p;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(ModuleDifferential, RandomEditsMatchVectorReferenceModel) {
  constexpr int kSeeds = 240;
  constexpr int kSteps = 300;
  std::uint32_t widest_segment = 0;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    desync::util::Rng rng{static_cast<std::uint64_t>(seed)};
    nl::Design d;
    nl::Module& m = d.addModule("top");
    RefModel ref;
    const nl::NameId pin_names[] = {d.names().intern("A"),
                                    d.names().intern("B"),
                                    d.names().intern("C"),
                                    d.names().intern("Z")};
    std::uint32_t serial = 0;
    const auto liveNets = [&] {
      std::vector<nl::NetId> out;
      for (std::uint32_t i = 0; i < ref.nets.size(); ++i) {
        if (ref.nets[i].live) out.push_back(nl::NetId{i});
      }
      return out;
    };
    const auto liveCells = [&] {
      std::vector<std::uint32_t> out;
      for (std::uint32_t c = 0; c < ref.cell_live.size(); ++c) {
        if (ref.cell_live[c]) out.push_back(c);
      }
      return out;
    };
    const auto addNet = [&] {
      m.addNet("n" + std::to_string(serial++));
      ref.nets.emplace_back();
    };
    for (int i = 0; i < 3; ++i) addNet();
    for (int step = 0; step < kSteps; ++step) {
      const std::vector<nl::NetId> nets = liveNets();
      const std::vector<std::uint32_t> cells = liveCells();
      const auto anyNet = [&] { return nets[rng.below(nets.size())]; };
      switch (rng.below(10)) {
        case 0:  // addNet (the pool of nets stays small)
          if (nets.size() < 8) addNet();
          break;
        case 1:
        case 2: {  // addCell: inputs anywhere, the output on an undriven net
          std::vector<nl::PinConn> pins;
          const std::size_t n_in = 1 + rng.below(3);
          for (std::size_t p = 0; p < n_in; ++p) {
            nl::NetId net;
            if (rng.below(8) != 0) net = anyNet();
            pins.push_back({pin_names[p], nl::PortDir::kInput, net});
          }
          std::vector<nl::NetId> undriven;
          for (nl::NetId n : nets) {
            if (ref.nets[n.index()].driver.kind == nl::TermKind::kNone) {
              undriven.push_back(n);
            }
          }
          nl::NetId out;
          if (!undriven.empty() && rng.below(2) == 0) {
            out = undriven[rng.below(undriven.size())];
          }
          pins.push_back({pin_names[3], nl::PortDir::kOutput, out});
          const nl::CellId id = m.addCell(
              d.names().intern("u" + std::to_string(serial++)),
              d.names().intern("ND3"), pins);
          ASSERT_EQ(id.index(), ref.pins.size());
          ref.pins.emplace_back();
          ref.cell_live.push_back(true);
          for (std::size_t p = 0; p < pins.size(); ++p) {
            ref.pins[id.index()].push_back(
                {pins[p].name, pins[p].dir, nl::NetId{}});
            if (pins[p].net.valid()) ref.connect(id.index(), p, pins[p].net);
          }
          break;
        }
        case 3: {  // connectPin (an output only onto an undriven net)
          if (cells.empty()) break;
          const std::uint32_t c = cells[rng.below(cells.size())];
          const std::size_t p = rng.below(ref.pins[c].size());
          const nl::NetId net = anyNet();
          if (ref.pins[c][p].dir == nl::PortDir::kOutput &&
              ref.nets[net.index()].driver.kind != nl::TermKind::kNone &&
              !(ref.nets[net.index()].driver ==
                RefModel::pinTerm(c, p))) {
            break;
          }
          m.connectPin(nl::CellId{c}, p, net);
          ref.connect(c, p, net);
          break;
        }
        case 4: {  // disconnectPin
          if (cells.empty()) break;
          const std::uint32_t c = cells[rng.below(cells.size())];
          const std::size_t p = rng.below(ref.pins[c].size());
          m.disconnectPin(nl::CellId{c}, p);
          ref.disconnect(c, p);
          break;
        }
        case 5: {  // removeCell or removeCells
          if (cells.empty()) break;
          std::vector<nl::CellId> victims;
          const std::size_t n = rng.below(2) == 0 ? 1 : 1 + rng.below(4);
          for (std::size_t k = 0; k < n && k < cells.size(); ++k) {
            const nl::CellId c{cells[rng.below(cells.size())]};
            if (std::find(victims.begin(), victims.end(), c) ==
                victims.end()) {
              victims.push_back(c);
            }
          }
          if (victims.size() == 1 && rng.below(2) == 0) {
            m.removeCell(victims[0]);
            const std::uint32_t c = victims[0].index();
            for (std::size_t p = 0; p < ref.pins[c].size(); ++p) {
              ref.disconnect(c, p);
            }
          } else {
            m.removeCells(victims);
            for (nl::CellId c : victims) ref.cell_live[c.index()] = false;
            for (RefNet& net : ref.nets) {
              if (net.driver.isCellPin() && !ref.cell_live[net.driver.index]) {
                net.driver = nl::TermRef{};
              }
              std::erase_if(net.sinks, [&](const nl::TermRef& t) {
                return t.isCellPin() && !ref.cell_live[t.index];
              });
            }
            for (nl::CellId c : victims) {
              for (nl::PinConn& p : ref.pins[c.index()]) p.net = {};
            }
          }
          for (nl::CellId c : victims) ref.cell_live[c.index()] = false;
          break;
        }
        case 6: {  // redistributeSinks onto other nets
          const nl::NetId from = anyNet();
          const std::vector<nl::TermRef> before = ref.nets[from.index()].sinks;
          std::vector<nl::NetId> assign(rng.below(before.size() + 1));
          for (nl::NetId& a : assign) {
            const nl::NetId to = anyNet();
            if (to != from && rng.below(3) != 0) a = to;
          }
          m.redistributeSinks(from, assign);
          std::vector<nl::TermRef> kept;
          for (std::size_t i = 0; i < before.size(); ++i) {
            const nl::TermRef t = before[i];
            if (i < assign.size() && assign[i].valid() && t.isCellPin()) {
              ref.pins[t.index][t.pin].net = assign[i];
              ref.nets[assign[i].index()].sinks.push_back(t);
            } else {
              kept.push_back(t);
            }
          }
          ref.nets[from.index()].sinks = kept;
          break;
        }
        case 7: {  // mergeNetInto
          if (nets.size() < 2) break;
          const nl::NetId from = anyNet();
          const nl::NetId to = anyNet();
          if (from == to) break;
          m.mergeNetInto(from, to);
          const std::vector<nl::TermRef> moved = ref.nets[from.index()].sinks;
          for (const nl::TermRef& t : moved) {
            if (t.isCellPin()) {
              ref.connect(t.index, t.pin, to);
            } else {
              RefModel::eraseFirst(ref.nets[from.index()].sinks, t);
              ref.port_net[t.index] = to;
              ref.nets[to.index()].sinks.push_back(t);
            }
          }
          ref.removeNet(from);
          break;
        }
        case 8: {  // removeNet, keeping a few nets alive
          if (nets.size() < 3) break;
          const nl::NetId id = anyNet();
          m.removeNet(id);
          ref.removeNet(id);
          break;
        }
        case 9: {  // an output port: one more sink
          const nl::NetId net = anyNet();
          const nl::PortId port = m.addPort(
              "p" + std::to_string(serial++), nl::PortDir::kOutput, net);
          ASSERT_EQ(port.index(), ref.port_net.size());
          ref.port_net.push_back(net);
          ref.nets[net.index()].sinks.push_back(
              nl::TermRef{nl::TermKind::kPort, port.value, 0});
          break;
        }
      }
      ASSERT_TRUE(sameAsModel(m, ref)) << "after step " << step;
    }
    for (const nl::Net& n : m.rawNets()) {
      widest_segment = std::max(widest_segment, n.sinks.capacity);
    }
    // A snapshot holds the same connectivity in a dense sink pool (no
    // slots left behind by grown segments) and stays editable.
    nl::Design snap_design;
    nl::Module& snap = nl::snapshotModule(snap_design, m);
    ASSERT_TRUE(sameAsModel(snap, ref)) << "snapshot";
    std::size_t live_sinks = 0;
    snap.forEachNet([&](nl::NetId id) { live_sinks += snap.sinks(id).size(); });
    EXPECT_EQ(snap.sinkPoolSize(), live_sinks);
    EXPECT_LE(snap.sinkPoolSize(), m.sinkPoolSize());
    const std::vector<nl::NetId> nets = liveNets();
    snap.addPort("snap_p", nl::PortDir::kOutput, nets.front());
    EXPECT_TRUE(snap.checkInvariants().empty());
  }
  // Segments grew through several doublings (1, 2, 4, ..., >= 16).
  EXPECT_GE(widest_segment, 16u);
}

TEST(Module, ConstNetsAreCached) {
  nl::Design d;
  nl::Module& m = d.addModule("top");
  nl::NetId c0 = m.constNet(false);
  EXPECT_EQ(m.constNet(false), c0);
  EXPECT_NE(m.constNet(true), c0);
  EXPECT_EQ(m.net(c0).driver.kind, nl::TermKind::kConst0);
}

// ------------------------------------------------------------- Verilog

TEST(Verilog, ParsesFlatGateLevelNetlist) {
  const char* src = R"(
    // simple two-gate netlist
    module top (a, b, q, clk);
      input a, b, clk;
      output q;
      wire w;
      ND2 u1 (.A(a), .B(b), .Z(w));
      DFF r1 (.D(w), .CP(clk), .Q(q), .QN());
    endmodule
  )";
  nl::Design d;
  nl::readVerilog(d, src, gatefile());
  nl::Module& m = d.top();
  EXPECT_EQ(m.name(), "top");
  EXPECT_EQ(m.numCells(), 2u);
  EXPECT_EQ(m.numPorts(), 4u);
  EXPECT_TRUE(m.checkInvariants().empty());
  nl::CellId r1 = m.findCell("r1");
  ASSERT_TRUE(r1.valid());
  EXPECT_EQ(m.pinNet(r1, "D"), m.findNet("w"));
}

TEST(Verilog, ParsesBusesAndConcats) {
  const char* src = R"(
    module top (d, q, clk);
      input [3:0] d;
      output [3:0] q;
      input clk;
      DFF r0 (.D(d[0]), .CP(clk), .Q(q[0]));
      DFF r1 (.D(d[1]), .CP(clk), .Q(q[1]));
      DFF r2 (.D(d[2]), .CP(clk), .Q(q[2]));
      DFF r3 (.D(d[3]), .CP(clk), .Q(q[3]));
    endmodule
  )";
  nl::Design d;
  nl::readVerilog(d, src, gatefile());
  nl::Module& m = d.top();
  EXPECT_EQ(m.numCells(), 4u);
  nl::NetId d2 = m.findNet("d[2]");
  ASSERT_TRUE(d2.valid());
  EXPECT_TRUE(m.net(d2).bus.valid());
  EXPECT_EQ(m.net(d2).bus.bit, 2);
}

TEST(Verilog, ParsesConstantsAndAssigns) {
  const char* src = R"(
    module top (a, z);
      input a;
      output z;
      wire t;
      AN2 u1 (.A(a), .B(1'b1), .Z(t));
      assign z = t;
    endmodule
  )";
  nl::Design d;
  nl::readVerilog(d, src, gatefile());
  nl::Module& m = d.top();
  EXPECT_EQ(m.numCells(), 1u);
  // The assign was folded: the port 'z' must observe u1's output.
  nl::CellId u1 = m.findCell("u1");
  nl::NetId zn = m.pinNet(u1, "Z");
  bool port_on_net = false;
  for (const nl::TermRef& s : m.sinks(zn)) {
    if (s.isPort()) port_on_net = true;
  }
  EXPECT_TRUE(port_on_net);
  EXPECT_TRUE(m.checkInvariants().empty());
}

TEST(Verilog, EscapedNamesAreSimplified) {
  const char* src =
      "module top (a, z);\n"
      "  input a;\n  output z;\n"
      "  IV \\u$1/raw (.A(a), .Z(z));\n"
      "endmodule\n";
  nl::Design d;
  nl::readVerilog(d, src, gatefile());
  nl::Module& m = d.top();
  EXPECT_EQ(m.numCells(), 1u);
  // The escaped instance name must have been replaced by a simple one.
  bool found_simple = false;
  m.forEachCell([&](nl::CellId id) {
    std::string name(m.cellName(id));
    found_simple = name.find('$') == std::string::npos &&
                   name.find('/') == std::string::npos;
  });
  EXPECT_TRUE(found_simple);
}

TEST(Verilog, RoundTripPreservesStructure) {
  const char* src = R"(
    module top (a, b, q, clk);
      input a, b, clk;
      output [1:0] q;
      wire w;
      ND2 u1 (.A(a), .B(b), .Z(w));
      DFF r0 (.D(w), .CP(clk), .Q(q[0]));
      DFF r1 (.D(q[0]), .CP(clk), .Q(q[1]));
    endmodule
  )";
  nl::Design d1;
  nl::readVerilog(d1, src, gatefile());
  std::string text = nl::writeVerilog(d1);

  nl::Design d2;
  nl::readVerilog(d2, text, gatefile());
  nl::Module& m2 = d2.top();
  EXPECT_EQ(m2.numCells(), 3u);
  EXPECT_EQ(m2.numPorts(), 5u);  // a, b, clk, q[0], q[1]
  EXPECT_TRUE(m2.checkInvariants().empty());
  nl::CellId r1 = m2.findCell("r1");
  ASSERT_TRUE(r1.valid());
  EXPECT_EQ(m2.pinNet(r1, "D"), m2.findNet("q[0]"));
}

TEST(Verilog, RejectsGarbage) {
  nl::Design d;
  EXPECT_THROW(nl::readVerilog(d, "module ; garbage", gatefile()),
               nl::VerilogError);
  nl::Design d2;
  EXPECT_THROW(
      nl::readVerilog(d2, "module t(a); input a; UNKNOWNCELL u (.X(a)); endmodule",
                      gatefile()),
      nl::VerilogError);
}

// ------------------------------------------------------------- Cleaning

nl::CleaningRules rulesFromGatefile() {
  nl::CleaningRules rules;
  rules.is_buffer = [](std::string_view t) { return gatefile().isBuffer(t); };
  rules.is_inverter = [](std::string_view t) {
    return gatefile().isInverter(t);
  };
  return rules;
}

TEST(Cleaning, RemovesBuffers) {
  const char* src = R"(
    module top (a, z);
      input a;
      output z;
      wire t1, t2;
      BF b1 (.A(a), .Z(t1));
      BF b2 (.A(t1), .Z(t2));
      IV u1 (.A(t2), .Z(z));
    endmodule
  )";
  nl::Design d;
  nl::readVerilog(d, src, gatefile());
  nl::CleaningStats stats = nl::cleanLogic(d.top(), rulesFromGatefile());
  EXPECT_EQ(stats.buffers_removed, 2u);
  EXPECT_EQ(d.top().numCells(), 1u);
  // The inverter input should now be the primary input net directly.
  nl::CellId u1 = d.top().findCell("u1");
  EXPECT_EQ(d.top().pinNet(u1, "A"), d.top().findNet("a"));
  EXPECT_TRUE(d.top().checkInvariants().empty());
}

TEST(Cleaning, RemovesInverterPairs) {
  const char* src = R"(
    module top (a, z);
      input a;
      output z;
      wire t1, t2;
      IV i1 (.A(a), .Z(t1));
      IV i2 (.A(t1), .Z(t2));
      AN2 u1 (.A(t2), .B(a), .Z(z));
    endmodule
  )";
  nl::Design d;
  nl::readVerilog(d, src, gatefile());
  nl::CleaningStats stats = nl::cleanLogic(d.top(), rulesFromGatefile());
  EXPECT_EQ(stats.inverter_pairs_removed, 1u);
  EXPECT_EQ(d.top().numCells(), 1u);
  nl::CellId u1 = d.top().findCell("u1");
  EXPECT_EQ(d.top().pinNet(u1, "A"), d.top().findNet("a"));
  EXPECT_TRUE(d.top().checkInvariants().empty());
}

TEST(Cleaning, KeepsSharedInverter) {
  // i1 output also feeds a non-inverter gate: only the pair's second stage
  // folds and i1 must survive for the remaining consumer.
  const char* src = R"(
    module top (a, y, z);
      input a;
      output y, z;
      wire t1, t2;
      IV i1 (.A(a), .Z(t1));
      IV i2 (.A(t1), .Z(t2));
      AN2 u1 (.A(t1), .B(a), .Z(y));
      AN2 u2 (.A(t2), .B(a), .Z(z));
    endmodule
  )";
  nl::Design d;
  nl::readVerilog(d, src, gatefile());
  nl::cleanLogic(d.top(), rulesFromGatefile());
  // i1 must survive because u1 still consumes t1.
  EXPECT_TRUE(d.top().findCell("i1").valid());
  // u2's A input now sees 'a' directly (the inverter pair collapsed).
  nl::CellId u2 = d.top().findCell("u2");
  EXPECT_EQ(d.top().pinNet(u2, "A"), d.top().findNet("a"));
  EXPECT_TRUE(d.top().checkInvariants().empty());
}

// ------------------------------------------------------------- Flatten

TEST(Flatten, ExpandsSubmodules) {
  const char* src = R"(
    module pair (i, o);
      input i;
      output o;
      wire m;
      IV g1 (.A(i), .Z(m));
      IV g2 (.A(m), .Z(o));
    endmodule
    module top (a, z);
      input a;
      output z;
      wire w;
      pair p1 (.i(a), .o(w));
      pair p2 (.i(w), .o(z));
    endmodule
  )";
  nl::Design d;
  nl::readVerilog(d, src, gatefile(), {}, "top");
  nl::FlattenStats stats = nl::flattenTop(d);
  EXPECT_EQ(stats.instances_flattened, 2u);
  EXPECT_EQ(d.top().numCells(), 4u);
  EXPECT_TRUE(d.top().findCell("p1/g1").valid());
  EXPECT_TRUE(d.top().checkInvariants().empty());
}

TEST(Flatten, NestedHierarchy) {
  const char* src = R"(
    module leaf (i, o);
      input i;
      output o;
      IV g (.A(i), .Z(o));
    endmodule
    module mid (i, o);
      input i;
      output o;
      wire m;
      leaf l1 (.i(i), .o(m));
      leaf l2 (.i(m), .o(o));
    endmodule
    module top (a, z);
      input a;
      output z;
      mid m1 (.i(a), .o(z));
    endmodule
  )";
  nl::Design d;
  nl::readVerilog(d, src, gatefile(), {}, "top");
  nl::flattenTop(d);
  EXPECT_EQ(d.top().numCells(), 2u);
  EXPECT_TRUE(d.top().findCell("m1/l1/g").valid());
  EXPECT_TRUE(d.top().checkInvariants().empty());
}

// ------------------------------------------------------------- BLIF

TEST(Blif, EmitsSubcktStructure) {
  const char* src = R"(
    module top (a, b, z);
      input a, b;
      output z;
      ND2 u1 (.A(a), .B(b), .Z(z));
    endmodule
  )";
  nl::Design d;
  nl::readVerilog(d, src, gatefile());
  std::string blif = nl::writeBlif(d.top());
  EXPECT_NE(blif.find(".model top"), std::string::npos);
  EXPECT_NE(blif.find(".inputs a b"), std::string::npos);
  EXPECT_NE(blif.find(".outputs z"), std::string::npos);
  EXPECT_NE(blif.find(".subckt ND2 A=a B=b Z=z"), std::string::npos);
  EXPECT_NE(blif.find(".end"), std::string::npos);
}

}  // namespace
