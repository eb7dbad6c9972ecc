// Tests for scan insertion and stuck-at fault simulation, including the key
// DFT claim of the paper: desynchronization preserves scan testability.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/desync.h"
#include "designs/small.h"
#include "dft/fault_sim.h"
#include "dft/scan.h"
#include "liberty/stdlib90.h"
#include "netlist/flatten.h"
#include "sim/flow_equivalence.h"
#include "sim/simulator.h"
#include "sim/stimulus.h"

namespace nl = desync::netlist;
namespace lib = desync::liberty;
namespace dft = desync::dft;
namespace sim = desync::sim;
namespace core = desync::core;
namespace designs = desync::designs;

using sim::Val;

namespace {

const lib::Gatefile& gf() {
  static const lib::Library l = lib::makeStdLib90(lib::LibVariant::kHighSpeed);
  static const lib::Gatefile g(l);
  return g;
}

TEST(Scan, InsertsChainAndPorts) {
  nl::Design d;
  designs::buildCounter(d, gf(), 6);
  nl::Module& m = *d.findModule("counter");
  dft::ScanResult s = dft::insertScan(m, gf());
  EXPECT_EQ(s.chain_length, 6u);
  EXPECT_TRUE(m.findPort("scan_in").valid());
  EXPECT_TRUE(m.findPort("scan_en").valid());
  EXPECT_TRUE(m.findPort("scan_out").valid());
  // Flip-flops became SDFFR (counter uses DFFR).
  m.forEachCell([&](nl::CellId id) {
    if (gf().isFlipFlop(std::string(m.cellType(id)))) {
      EXPECT_EQ(m.cellType(id), "SDFFR");
    }
  });
  EXPECT_TRUE(m.checkInvariants().empty());
}

TEST(Scan, ChainShiftsPatternThrough) {
  nl::Design d;
  designs::buildCounter(d, gf(), 5);
  nl::Module& m = *d.findModule("counter");
  dft::ScanResult s = dft::insertScan(m, gf());
  sim::Simulator sm(m, gf());
  auto pulse = [&]() {
    sm.setInput("clk", Val::k1);
    sm.run(sm.now() + sim::nsToPs(5));
    sm.setInput("clk", Val::k0);
    sm.run(sm.now() + sim::nsToPs(5));
  };
  sm.setInput("clk", Val::k0);
  sm.setInput("rst_n", Val::k0);
  sm.setInput("scan_en", Val::k1);
  sm.setInput("scan_in", Val::k0);
  sm.run(sim::nsToPs(10));
  sm.setInput("rst_n", Val::k1);
  sm.run(sm.now() + sim::nsToPs(5));
  // Shift pattern 10110 in, then out; it must emerge intact.
  std::vector<bool> pat = {true, false, true, true, false};
  for (bool b : pat) {
    sm.setInput("scan_in", sim::fromBool(b));
    pulse();
  }
  std::vector<bool> out;
  sm.setInput("scan_in", Val::k0);
  for (std::size_t i = 0; i < s.chain_length; ++i) {
    out.push_back(sm.value("scan_out") == Val::k1);
    pulse();
  }
  EXPECT_EQ(out, pat);
}

TEST(FaultSim, DetectsMostFaultsOnCounter) {
  nl::Design d;
  designs::buildCounter(d, gf(), 6);
  nl::Module& m = *d.findModule("counter");
  dft::ScanResult s = dft::insertScan(m, gf());
  dft::FaultSimOptions opt;
  opt.n_patterns = 8;
  dft::FaultSimResult r = dft::runScanFaultSim(m, gf(), s, opt);
  EXPECT_GT(r.total, 40u);
  EXPECT_GT(r.coverage(), 0.8) << r.detected << "/" << r.total;
  EXPECT_EQ(r.patterns.size(), 8u);
}

TEST(FaultSim, BitsimCampaignMatchesEventEngine) {
  // The bit-parallel campaign (63 forced faults + the golden machine per
  // pass) must reproduce the event-driven engine's per-fault verdicts
  // exactly — same fault list, same detected flags, same patterns.
  std::size_t max_total = 0;
  for (int width : {5, 12}) {
    nl::Design d;
    designs::buildCounter(d, gf(), width);
    nl::Module& m = *d.findModule("counter");
    dft::ScanResult s = dft::insertScan(m, gf());
    dft::FaultSimOptions opt;
    opt.n_patterns = 6;
    opt.engine = sim::SyncEngine::kEvent;
    const dft::FaultSimResult ev = dft::runScanFaultSim(m, gf(), s, opt);
    opt.engine = sim::SyncEngine::kBitsim;
    const dft::FaultSimResult bp = dft::runScanFaultSim(m, gf(), s, opt);

    EXPECT_EQ(ev.patterns, bp.patterns);
    EXPECT_EQ(ev.total, bp.total);
    EXPECT_EQ(ev.detected, bp.detected);
    ASSERT_EQ(ev.faults.size(), bp.faults.size());
    for (std::size_t i = 0; i < ev.faults.size(); ++i) {
      EXPECT_EQ(ev.faults[i].net, bp.faults[i].net) << "fault " << i;
      EXPECT_EQ(ev.faults[i].stuck1, bp.faults[i].stuck1) << "fault " << i;
      EXPECT_EQ(ev.faults[i].detected, bp.faults[i].detected)
          << "fault " << i << " on " << ev.faults[i].net
          << (ev.faults[i].stuck1 ? " SA1" : " SA0");
    }
    max_total = std::max(max_total, ev.total);
  }
  // The wide counter has more faults than one 63-fault pass holds, so the
  // bitsim campaign's lane packing across passes is exercised.
  EXPECT_GT(max_total, 64u);
}

TEST(FaultSim, UndetectableWithoutPatterns) {
  nl::Design d;
  designs::buildCounter(d, gf(), 4);
  nl::Module& m = *d.findModule("counter");
  dft::ScanResult s = dft::insertScan(m, gf());
  dft::FaultSimOptions opt;
  opt.n_patterns = 0;
  dft::FaultSimResult r = dft::runScanFaultSim(m, gf(), s, opt);
  EXPECT_EQ(r.detected, 0u);
}

TEST(Dft, DesynchronizedScanDesignStaysFlowEquivalent) {
  // The paper's central DFT argument: the desynchronized circuit runs the
  // same scan patterns because it is flow-equivalent.  Here both versions
  // run with scan_en asserted and a bit stream on scan_in; every scan
  // latch pair must store the same shift sequence as its flip-flop.
  nl::Design d;
  designs::buildPipe2(d, gf(), 4);
  nl::Module& m = *d.findModule("pipe2");
  dft::insertScan(m, gf());
  nl::Design dsync;
  nl::cloneModule(dsync, m);

  core::DesyncOptions opt;
  opt.control.reset_port = "rst_n";
  opt.control.reset_active_low = true;
  core::desynchronize(d, m, gf(), opt);

  // Synchronous shift: the shared protocol resets, then the shift cycles
  // are driven here because scan_in changes every cycle.
  constexpr int kShifts = 24;
  sim::SyncStimulus st;
  st.half_period_ns = 5;
  st.cycles = 0;
  sim::Simulator ss(dsync.top(), gf());
  ss.setInput("scan_en", Val::k1);
  ss.setInput("scan_in", Val::k1);
  sim::runSyncStimulus(ss, st);
  for (int i = 0; i < kShifts; ++i) {
    ss.setInput("scan_in", i % 3 == 0 ? Val::k1 : Val::k0);
    ss.setInput("clk", Val::k1);
    ss.run(ss.now() + sim::nsToPs(5));
    ss.setInput("clk", Val::k0);
    ss.run(ss.now() + sim::nsToPs(5));
  }

  // Desynchronized shift: the handshake replaces the clock; feed the same
  // bit stream by changing scan_in after each slave capture of the first
  // chain element.
  st.cycles = kShifts;  // the span the desync guard is measured in
  sim::Simulator sd(m, gf());
  sd.setInput("scan_en", Val::k1);
  sd.setInput("scan_in", Val::k1);
  sim::resetDesyncStimulus(sd, st);
  // Drive scan_in per self-timed "cycle", watching the first chain FF's
  // master latch enable falling edges.
  int shifts = 0;
  const sim::CaptureLog* first = nullptr;
  for (const auto& log : sd.captures()) {
    if (log.element.find("_Lm") != std::string::npos) {
      first = &log;
      break;
    }
  }
  ASSERT_NE(first, nullptr);
  // Simple approach: advance in small steps; when the number of captures
  // of the reference element grows, present the next stimulus bit.
  std::size_t seen = first->values.size();
  while (shifts < kShifts && sd.now() < sim::nsToPs(2000)) {
    sd.run(sd.now() + sim::nsToPs(1));
    if (first->values.size() > seen) {
      seen = first->values.size();
      ++shifts;
      sd.setInput("scan_in", shifts % 3 == 0 ? Val::k1 : Val::k0);
    }
  }
  EXPECT_EQ(shifts, kShifts);
  // The last bit stays on scan_in while the rest of the chain catches up.
  sim::freeRunDesyncStimulus(sd, st, ss.captures());
  sim::FlowEqReport rep = sim::checkFlowEquivalence(ss, sd);
  EXPECT_TRUE(rep.equivalent) << (rep.details.empty() ? "?"
                                                      : rep.details[0]);
  EXPECT_GT(rep.values_compared, 50u);
}

}  // namespace
