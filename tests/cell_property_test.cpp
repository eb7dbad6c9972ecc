// Property tests over every library cell: the event simulator must agree
// with the Liberty boolean function on every input combination, for every
// combinational cell of both library variants; sequential cells must hold
// state under inactive clocks.
#include <gtest/gtest.h>

#include "core/desync.h"
#include "liberty/gatefile.h"
#include "liberty/stdlib90.h"
#include "netlist/flatten.h"
#include "netlist/netlist.h"
#include "sim/flow_equivalence.h"
#include "sim/simulator.h"
#include "sim/stimulus.h"

namespace nl = desync::netlist;
namespace lib = desync::liberty;
namespace sim = desync::sim;

using sim::Val;

namespace {

struct CellCase {
  lib::LibVariant variant;
  std::string cell;
};

// Names the discovered ctest case after the library variant and cell.
// Without it GoogleTest prints the raw bytes of CellCase, heap pointers
// included, so the case names changed from build to build.
void PrintTo(const CellCase& c, std::ostream* os) {
  *os << (c.variant == lib::LibVariant::kHighSpeed ? "HS_" : "LL_") << c.cell;
}

std::vector<CellCase> combCells() {
  std::vector<CellCase> cases;
  for (lib::LibVariant v :
       {lib::LibVariant::kHighSpeed, lib::LibVariant::kLowLeakage}) {
    lib::Library l = lib::makeStdLib90(v);
    l.forEachCell([&](const lib::LibCell& c) {
      if (c.kind == lib::CellKind::kCombinational) {
        cases.push_back(CellCase{v, c.name});
      }
    });
  }
  return cases;
}

class CombCellTruth : public ::testing::TestWithParam<CellCase> {};

TEST_P(CombCellTruth, SimulatorMatchesLibertyFunction) {
  const CellCase& tc = GetParam();
  lib::Library library = lib::makeStdLib90(tc.variant);
  lib::Gatefile gatefile(library);
  const lib::LibCell& cell = library.cell(tc.cell);
  const lib::LibPin* out = cell.findPin("Z");
  ASSERT_NE(out, nullptr);
  const auto& vars = out->function.vars();
  ASSERT_LE(vars.size(), 6u);

  // One-cell module: each function variable becomes an input port.
  nl::Design d;
  nl::Module& m = d.addModule("tb");
  std::vector<nl::Module::PinInit> pins;
  for (const std::string& v : vars) {
    nl::NetId n = m.addNet(v);
    m.addPort(v, nl::PortDir::kInput, n);
    pins.push_back({v, nl::PortDir::kInput, n});
  }
  nl::NetId z = m.addNet("z");
  m.addPort("z", nl::PortDir::kOutput, z);
  pins.push_back({"Z", nl::PortDir::kOutput, z});
  m.addCell("dut", tc.cell, pins);

  sim::Simulator s(m, gatefile);
  const std::size_t rows = std::size_t{1} << vars.size();
  for (std::size_t row = 0; row < rows; ++row) {
    std::vector<bool> values(vars.size());
    for (std::size_t i = 0; i < vars.size(); ++i) {
      values[i] = ((row >> i) & 1u) != 0;
      s.setInput(vars[i], sim::fromBool(values[i]));
    }
    s.runUntilStable(s.now() + sim::nsToPs(100));
    const bool expect = out->function.eval(values);
    EXPECT_EQ(s.value("z"), sim::fromBool(expect))
        << tc.cell << " row " << row;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCombCells, CombCellTruth,
                         ::testing::ValuesIn(combCells()));

// ---- sequential hold property -------------------------------------------

class FlipFlopHold : public ::testing::TestWithParam<std::string> {};

TEST_P(FlipFlopHold, HoldsStateWhileClockIdle) {
  lib::Library library = lib::makeStdLib90(lib::LibVariant::kHighSpeed);
  lib::Gatefile gatefile(library);
  const std::string& type = GetParam();
  const lib::SeqClass* sc = gatefile.seqClass(type);
  ASSERT_NE(sc, nullptr);

  nl::Design d;
  nl::Module& m = d.addModule("tb");
  std::vector<nl::Module::PinInit> pins;
  auto in = [&](const std::string& p) {
    if (p.empty()) return;
    nl::NetId n = m.addNet(p);
    m.addPort(p, nl::PortDir::kInput, n);
    pins.push_back({p, nl::PortDir::kInput, n});
  };
  in(sc->data_pin);
  in(sc->scan_in);
  in(sc->scan_enable);
  in(sc->sync_pin);
  in(sc->async_clear_pin);
  in(sc->async_preset_pin);
  in(sc->clock_pin);
  nl::NetId q = m.addNet("q");
  m.addPort("q", nl::PortDir::kOutput, q);
  pins.push_back({sc->q_pin, nl::PortDir::kOutput, q});
  m.addCell("dut", type, pins);

  sim::Simulator s(m, gatefile);
  auto set = [&](const std::string& p, Val v) {
    if (!p.empty()) s.setInput(p, v);
  };
  // Deassert all controls, clock in a 1.
  set(sc->clock_pin, Val::k0);
  set(sc->data_pin, Val::k1);
  set(sc->scan_enable, Val::k0);
  set(sc->scan_in, Val::k0);
  set(sc->sync_pin, sc->sync_active_low ? Val::k1 : Val::k0);
  set(sc->async_clear_pin, sc->async_clear_active_low ? Val::k1 : Val::k0);
  set(sc->async_preset_pin,
      sc->async_preset_active_low ? Val::k1 : Val::k0);
  s.runUntilStable(s.now() + sim::nsToPs(10));
  set(sc->clock_pin, Val::k1);
  s.runUntilStable(s.now() + sim::nsToPs(10));
  ASSERT_EQ(s.value("q"), Val::k1);
  // Wiggle data with the clock high and then low: no capture.
  set(sc->data_pin, Val::k0);
  s.runUntilStable(s.now() + sim::nsToPs(10));
  EXPECT_EQ(s.value("q"), Val::k1);
  set(sc->clock_pin, Val::k0);
  s.runUntilStable(s.now() + sim::nsToPs(10));
  EXPECT_EQ(s.value("q"), Val::k1);
  set(sc->data_pin, Val::k1);
  set(sc->data_pin, Val::k0);
  s.runUntilStable(s.now() + sim::nsToPs(10));
  EXPECT_EQ(s.value("q"), Val::k1);
  // Next rising edge captures the 0.
  set(sc->clock_pin, Val::k1);
  s.runUntilStable(s.now() + sim::nsToPs(10));
  EXPECT_EQ(s.value("q"), Val::k0);
}

INSTANTIATE_TEST_SUITE_P(AllFlipFlops, FlipFlopHold,
                         ::testing::Values("DFF", "DFFR", "DFFS", "DFFSYNR",
                                           "SDFF", "SDFFR"));

// ---- substitution equivalence property -----------------------------------
// For every flip-flop type: build a 1-bit circuit around it, desynchronize,
// and require flow-equivalence (covers scan, sync-reset, async set/clear
// substitution recipes of Fig 3.1 against real stimulus).

class SubstitutionEquivalence : public ::testing::TestWithParam<std::string> {
};

TEST_P(SubstitutionEquivalence, FlowEquivalentAfterDesync) {
  lib::Library library = lib::makeStdLib90(lib::LibVariant::kHighSpeed);
  lib::Gatefile gatefile(library);
  const std::string& type = GetParam();
  const lib::SeqClass* sc = gatefile.seqClass(type);
  ASSERT_NE(sc, nullptr);

  // A self-toggling bit through the flip-flop under test (D = NOR(q,
  // !rst_n), so the next value is a known 0 while reset is asserted even
  // for reset-less flip-flop types), with all control pins tied inactive
  // except clear/sync-reset wired to rst_n when present.
  nl::Design d;
  nl::Module& m = d.addModule("tb");
  nl::NetId clk = m.addNet("clk");
  m.addPort("clk", nl::PortDir::kInput, clk);
  nl::NetId rst_n = m.addNet("rst_n");
  m.addPort("rst_n", nl::PortDir::kInput, rst_n);
  nl::NetId rst_i = m.addNet("rst_i");
  m.addCell("rstinv", "IV",
            {{"A", nl::PortDir::kInput, rst_n},
             {"Z", nl::PortDir::kOutput, rst_i}});
  nl::NetId q = m.addNet("q");
  nl::NetId nq = m.addNet("nq");
  m.addCell("inv", "NR2",
            {{"A", nl::PortDir::kInput, q},
             {"B", nl::PortDir::kInput, rst_i},
             {"Z", nl::PortDir::kOutput, nq}});
  std::vector<nl::Module::PinInit> pins = {
      {sc->data_pin, nl::PortDir::kInput, nq},
      {sc->clock_pin, nl::PortDir::kInput, clk},
      {sc->q_pin, nl::PortDir::kOutput, q}};
  if (!sc->scan_enable.empty()) {
    pins.push_back({sc->scan_enable, nl::PortDir::kInput, m.constNet(false)});
    pins.push_back({sc->scan_in, nl::PortDir::kInput, m.constNet(false)});
  }
  if (!sc->sync_pin.empty()) {
    pins.push_back({sc->sync_pin, nl::PortDir::kInput, rst_n});
  }
  if (!sc->async_clear_pin.empty()) {
    pins.push_back({sc->async_clear_pin, nl::PortDir::kInput, rst_n});
  }
  if (!sc->async_preset_pin.empty()) {
    pins.push_back(
        {sc->async_preset_pin, nl::PortDir::kInput, m.constNet(false)});
    // preset is active-low in this library: tie to 1 = inactive.
    pins.back().net = m.constNet(true);
  }
  m.addCell("dut", type, pins);
  m.addPort("q", nl::PortDir::kOutput, q);

  nl::Design sync_copy;
  nl::cloneModule(sync_copy, m);

  // Separate controller reset ("rst" port created by the flow): the
  // network runs functional-reset cycles first so even reset-less
  // flip-flop types reach a defined state, mirroring a synchronous reset
  // sequence with the clock running.
  desync::core::DesyncOptions opt;
  desync::core::desynchronize(d, m, gatefile, opt);

  // Synchronous run: clock runs during functional reset.  rst_n is the
  // functional reset and is clocked through, so the protocol drives the
  // clock only: 6 cycles with rst_n asserted, 20 after its release.
  sim::SyncStimulus st;
  st.reset_port.clear();
  st.half_period_ns = 5;
  st.cycles = 6;
  sim::Simulator ss(sync_copy.top(), gatefile);
  ss.setInput("rst_n", Val::k0);
  sim::runSyncStimulus(ss, st);
  ss.setInput("rst_n", Val::k1);
  st.cycles = 20;
  sim::runSyncStimulus(ss, st);

  // Desynchronized run: release the controller reset first (self-timed
  // reset cycles with rst_n still asserted), then the functional reset,
  // then free-run until every element has the captures the comparison
  // needs.
  sim::SyncStimulus controller = st;
  controller.reset_port = "rst";
  controller.reset_active_low = false;
  controller.reset_ns = 5;
  sim::Simulator sd(m, gatefile);
  sd.setInput("rst_n", Val::k0);
  sim::resetDesyncStimulus(sd, controller);
  sd.run(sd.now() + sim::nsToPs(40));
  sd.setInput("rst_n", Val::k1);
  sim::FlowEqOptions feo;
  feo.max_initial_skip = 120;  // reset-epoch cycle counts differ
  sim::freeRunDesyncStimulus(sd, st, ss.captures(), feo);

  sim::FlowEqReport fe = sim::checkFlowEquivalence(ss, sd, feo);
  EXPECT_TRUE(fe.equivalent)
      << type << ": " << (fe.details.empty() ? "?" : fe.details[0]);
  EXPECT_GE(fe.values_compared, 10u);
}

INSTANTIATE_TEST_SUITE_P(AllFlipFlops, SubstitutionEquivalence,
                         ::testing::Values("DFF", "DFFR", "DFFS", "DFFSYNR",
                                           "SDFF", "SDFFR"));

}  // namespace
