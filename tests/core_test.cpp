// Tests for the drdesync core: grouping, dependency graph, flip-flop
// substitution, control network and the full desynchronization flow with
// flow-equivalence checked in simulation.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/desync.h"
#include "designs/cpu.h"
#include "designs/small.h"
#include "liberty/stdlib90.h"
#include "netlist/flatten.h"
#include "netlist/verilog.h"
#include "sim/flow_equivalence.h"
#include "sim/simulator.h"
#include "sim/stimulus.h"

namespace nl = desync::netlist;
namespace lib = desync::liberty;
namespace core = desync::core;
namespace sim = desync::sim;
namespace designs = desync::designs;

using sim::Val;

namespace {

const lib::Gatefile& gf() {
  static const lib::Library l = lib::makeStdLib90(lib::LibVariant::kHighSpeed);
  static const lib::Gatefile g(l);
  return g;
}

nl::Design parse(const char* src) {
  nl::Design d;
  nl::readVerilog(d, src, gf());
  return d;
}

// ------------------------------------------------------------- grouping

TEST(Grouping, TwoIndependentCloudsSplit) {
  nl::Design d = parse(R"(
    module top (clk, rst_n);
      input clk, rst_n;
      wire q1, nq1, q2, nq2;
      IV i1 (.A(q1), .Z(nq1));
      DFFR r1 (.D(nq1), .CP(clk), .CDN(rst_n), .Q(q1));
      IV i2 (.A(q2), .Z(nq2));
      DFFR r2 (.D(nq2), .CP(clk), .CDN(rst_n), .Q(q2));
    endmodule
  )");
  core::Regions r = core::groupRegions(d.top(), gf());
  EXPECT_EQ(r.n_groups, 3);  // group 0 + two regions
  nl::CellId r1 = d.top().findCell("r1");
  nl::CellId r2 = d.top().findCell("r2");
  EXPECT_NE(r.groupOf(r1), r.groupOf(r2));
  EXPECT_GT(r.groupOf(r1), 0);
}

TEST(Grouping, SharedCloudMerges) {
  nl::Design d = parse(R"(
    module top (clk, rst_n);
      input clk, rst_n;
      wire q1, q2, x, y;
      ND2 n1 (.A(q1), .B(q2), .Z(x));
      IV i1 (.A(x), .Z(y));
      DFFR r1 (.D(x), .CP(clk), .CDN(rst_n), .Q(q1));
      DFFR r2 (.D(y), .CP(clk), .CDN(rst_n), .Q(q2));
    endmodule
  )");
  core::Regions r = core::groupRegions(d.top(), gf());
  EXPECT_EQ(r.groupOf(d.top().findCell("r1")),
            r.groupOf(d.top().findCell("r2")));
}

TEST(Grouping, InputRegistersFallIntoGroup0) {
  nl::Design d = parse(R"(
    module top (clk, rst_n, din);
      input clk, rst_n, din;
      wire q0, q1, nq1;
      DFFR rin (.D(din), .CP(clk), .CDN(rst_n), .Q(q0));
      IV i1 (.A(q0), .Z(nq1));
      DFFR r1 (.D(nq1), .CP(clk), .CDN(rst_n), .Q(q1));
    endmodule
  )");
  core::Regions r = core::groupRegions(d.top(), gf());
  EXPECT_EQ(r.groupOf(d.top().findCell("rin")), 0);
  EXPECT_GT(r.groupOf(d.top().findCell("r1")), 0);
}

TEST(Grouping, FfChainsFollowTheirDriver) {
  // r2 stores history of r1 (no logic between): same region (step 2).
  nl::Design d = parse(R"(
    module top (clk, rst_n);
      input clk, rst_n;
      wire q1, nq1, q2;
      IV i1 (.A(q1), .Z(nq1));
      DFFR r1 (.D(nq1), .CP(clk), .CDN(rst_n), .Q(q1));
      DFFR r2 (.D(q1), .CP(clk), .CDN(rst_n), .Q(q2));
    endmodule
  )");
  core::Regions r = core::groupRegions(d.top(), gf());
  EXPECT_EQ(r.groupOf(d.top().findCell("r1")),
            r.groupOf(d.top().findCell("r2")));
}

TEST(Grouping, BusHeuristicMergesColumns) {
  // Two independent mux columns driving bits of the same bus.
  const char* src = R"(
    module top (clk, rst_n, s);
      input clk, rst_n, s;
      wire [1:0] q;
      wire m0, m1;
      MUX21 x0 (.A(q[0]), .B(rst_n), .S(s), .Z(m0));
      MUX21 x1 (.A(q[1]), .B(rst_n), .S(s), .Z(m1));
      DFFR b0 (.D(m0), .CP(clk), .CDN(rst_n), .Q(q[0]));
      DFFR b1 (.D(m1), .CP(clk), .CDN(rst_n), .Q(q[1]));
    endmodule
  )";
  {
    nl::Design d = parse(src);
    core::GroupingOptions opt;
    opt.bus_heuristic = true;
    core::Regions r = core::groupRegions(d.top(), gf(), opt);
    EXPECT_EQ(r.groupOf(d.top().findCell("b0")),
              r.groupOf(d.top().findCell("b1")));
  }
  {
    nl::Design d = parse(src);
    core::GroupingOptions opt;
    opt.bus_heuristic = false;
    core::Regions r = core::groupRegions(d.top(), gf(), opt);
    EXPECT_NE(r.groupOf(d.top().findCell("b0")),
              r.groupOf(d.top().findCell("b1")));
  }
}

TEST(Grouping, FalsePathNetsAreIgnored) {
  // A global "mode" net touching both clouds would merge them; marking it
  // as a false path keeps them separate (thesis §3.2.2 "False Paths").
  const char* src = R"(
    module top (clk, rst_n, mode);
      input clk, rst_n, mode;
      wire modeb, q1, t1, q2, t2;
      IV gm (.A(mode), .Z(modeb));
      ND2 g1 (.A(q1), .B(modeb), .Z(t1));
      DFFR r1 (.D(t1), .CP(clk), .CDN(rst_n), .Q(q1));
      ND2 g2 (.A(q2), .B(modeb), .Z(t2));
      DFFR r2 (.D(t2), .CP(clk), .CDN(rst_n), .Q(q2));
    endmodule
  )";
  {
    nl::Design d = parse(src);
    core::Regions r = core::groupRegions(d.top(), gf());
    EXPECT_EQ(r.groupOf(d.top().findCell("r1")),
              r.groupOf(d.top().findCell("r2")));
  }
  {
    nl::Design d = parse(src);
    core::GroupingOptions opt;
    opt.false_path_nets = {"modeb"};
    core::Regions r = core::groupRegions(d.top(), gf(), opt);
    EXPECT_NE(r.groupOf(d.top().findCell("r1")),
              r.groupOf(d.top().findCell("r2")));
  }
}

TEST(Grouping, CleaningPreventsFalseMerging) {
  // A shared buffer chain between two clouds (Fig 3.5): with cleaning the
  // clouds stay separate; without, the buffer ties them together.
  const char* src = R"(
    module top (clk, rst_n);
      input clk, rst_n;
      wire q1, nq1, q2, nq2, qb;
      IV i1 (.A(q1), .Z(nq1));
      DFFR r1 (.D(nq1), .CP(clk), .CDN(rst_n), .Q(q1));
      BF  b1 (.A(q1), .Z(qb));
      IV i2 (.A(qb), .Z(nq2));
      DFFR r2 (.D(nq2), .CP(clk), .CDN(rst_n), .Q(q2));
    endmodule
  )";
  nl::Design d = parse(src);
  core::GroupingOptions opt;
  opt.clean_logic = true;
  core::Regions r = core::groupRegions(d.top(), gf(), opt);
  // The buffer disappears entirely.
  EXPECT_FALSE(d.top().findCell("b1").valid());
}

TEST(Grouping, ManualPrefixGrouping) {
  nl::Design d;
  designs::buildPipe2(d, gf(), 4);
  nl::Module& m = *d.findModule("pipe2");
  core::Regions r = core::groupRegionsBySeqPrefix(
      m, gf(), {{"cnt_"}, {"acc_"}});
  EXPECT_EQ(r.n_groups, 3);
  EXPECT_EQ(r.seq_cells[1].size(), 4u);
  EXPECT_EQ(r.seq_cells[2].size(), 4u);
  // The adders landed with their registers.
  EXPECT_FALSE(r.comb_cells[1].empty());
  EXPECT_FALSE(r.comb_cells[2].empty());
}

TEST(Grouping, ManualGroupSpecParses) {
  using Groups = std::vector<std::vector<std::string>>;
  const std::vector<std::pair<std::string, Groups>> cases = {
      {"", {}},
      {"a", {{"a"}}},
      {"p1,p2;p3", {{"p1", "p2"}, {"p3"}}},
      {"a,b;;c,", {{"a", "b"}, {"c"}}},
      {";,;", {}},
  };
  for (const auto& [spec, want] : cases) {
    EXPECT_EQ(core::parseManualGroups(spec), want) << '"' << spec << '"';
  }
}

TEST(Grouping, DlxAutoRegionsFollowPipelineStructure) {
  nl::Design d;
  designs::buildCpu(d, gf(), designs::dlxConfig());
  nl::Module& m = *d.findModule("dlx");
  core::Regions r = core::groupRegions(m, gf());
  // The generator's sharing granularity yields ~a dozen regions that
  // refine the 4 pipeline stages; pipeline registers of one stage must not
  // mix with another stage's.
  EXPECT_GE(r.n_groups, 5);
  EXPECT_LE(r.n_groups, 20);
  int g_pc = r.groupOf(m.findCell("pc_r0"));
  int g_alu = r.groupOf(m.findCell("exmem_alu_r0"));
  int g_rf = r.groupOf(m.findCell("rf_w0_r0"));
  EXPECT_NE(g_pc, g_alu);
  EXPECT_NE(g_alu, g_rf);
}

// ---------------------------------------------------------- dependency

TEST(DependencyGraph, Pipe2Edges) {
  nl::Design d;
  designs::buildPipe2(d, gf(), 4);
  nl::Module& m = *d.findModule("pipe2");
  core::Regions r =
      core::groupRegionsBySeqPrefix(m, gf(), {{"cnt_"}, {"acc_"}});
  core::DependencyGraph g = core::buildDependencyGraph(m, gf(), r);
  // counter: self-loop only; accumulator: counter + self.
  EXPECT_EQ(g.preds[1], (std::vector<int>{1}));
  EXPECT_EQ(g.preds[2], (std::vector<int>{1, 2}));
  EXPECT_EQ(g.succs[1], (std::vector<int>{1, 2}));
}

// ------------------------------------------------------- substitution

TEST(Substitution, PlainFlipFlopBecomesLatchPair) {
  nl::Design d = parse(R"(
    module top (clk, rst_n);
      input clk, rst_n;
      wire q, nq;
      IV i1 (.A(q), .Z(nq));
      DFFR r1 (.D(nq), .CP(clk), .CDN(rst_n), .Q(q));
    endmodule
  )");
  core::Regions r = core::groupRegions(d.top(), gf());
  core::SubstitutionResult s =
      core::substituteFlipFlops(d.top(), gf(), r);
  EXPECT_EQ(s.ffs_replaced, 1u);
  EXPECT_FALSE(d.top().findCell("r1").valid());
  EXPECT_TRUE(d.top().findCell("r1_Lm").valid());
  EXPECT_TRUE(d.top().findCell("r1_Ls").valid());
  EXPECT_EQ(d.top().cellType(d.top().findCell("r1_Lm")), "LD");
  EXPECT_TRUE(d.top().checkInvariants().empty());
  // Async clear produced enable-forcing glue.
  EXPECT_GT(s.glue_cells_added, 0u);
}

TEST(Substitution, ScanFlipFlopGetsMux) {
  nl::Design d = parse(R"(
    module top (clk, si, se, din);
      input clk, si, se, din;
      wire q, t;
      AN2 a1 (.A(q), .B(din), .Z(t));
      SDFF r1 (.D(t), .SI(si), .SE(se), .CP(clk), .Q(q));
    endmodule
  )");
  core::Regions r = core::groupRegions(d.top(), gf());
  core::substituteFlipFlops(d.top(), gf(), r);
  EXPECT_TRUE(d.top().findCell("r1_scmux").valid());
  EXPECT_EQ(d.top().cellType(d.top().findCell("r1_scmux")), "MUX21");
  EXPECT_TRUE(d.top().checkInvariants().empty());
}

TEST(Substitution, SyncResetGetsAndGate) {
  nl::Design d = parse(R"(
    module top (clk, rn);
      input clk, rn;
      wire q, nq;
      IV i1 (.A(q), .Z(nq));
      DFFSYNR r1 (.D(nq), .RN(rn), .CP(clk), .Q(q));
    endmodule
  )");
  core::Regions r = core::groupRegions(d.top(), gf());
  core::substituteFlipFlops(d.top(), gf(), r);
  EXPECT_TRUE(d.top().findCell("r1_syr").valid());
  EXPECT_EQ(d.top().cellType(d.top().findCell("r1_syr")), "AN2");
  EXPECT_TRUE(d.top().checkInvariants().empty());
}

TEST(Substitution, QnDrivenThroughInverter) {
  nl::Design d = parse(R"(
    module top (clk, rst_n);
      input clk, rst_n;
      wire q, qn;
      DFFR r1 (.D(qn), .CP(clk), .CDN(rst_n), .Q(q), .QN(qn));
    endmodule
  )");
  core::Regions r = core::groupRegions(d.top(), gf());
  core::substituteFlipFlops(d.top(), gf(), r);
  EXPECT_TRUE(d.top().findCell("r1_qninv").valid());
  EXPECT_TRUE(d.top().checkInvariants().empty());
}

// -------------------------------------------------------- full flow

struct FlowResult {
  core::DesyncResult desync;
  sim::FlowEqReport fe;
  double eff_period_ns = 0;
};

/// Clones, desynchronizes, simulates both versions and checks
/// flow-equivalence.  `cycles` synchronous clock cycles at 2x the minimum
/// period; the desynchronized version free-runs until every register has
/// the captures the comparison needs (sim::runDesyncStimulus).
FlowResult runFlow(nl::Design& d, const std::string& top, int cycles,
                   core::DesyncOptions opt = {}) {
  nl::Design dsync;
  nl::cloneModule(dsync, *d.findModule(top));
  opt.control.reset_port = "rst_n";
  opt.control.reset_active_low = true;

  FlowResult out;
  out.desync = core::desynchronize(d, *d.findModule(top), gf(), opt);

  sim::SyncStimulus st;
  st.half_period_ns = out.desync.sync_min_period_ns;  // period = 2x min
  st.cycles = cycles;
  sim::Simulator ss(dsync.top(), gf());
  sim::runSyncStimulus(ss, st);

  sim::Simulator sd(*d.findModule(top), gf());
  std::vector<sim::Time> rises;
  sd.watchNet("G1_gm", [&](sim::Time t, Val v) {
    if (v == Val::k1) rises.push_back(t);
  });
  sim::runDesyncStimulus(sd, st, ss.captures());
  if (rises.size() > 3) {
    out.eff_period_ns =
        static_cast<double>(rises.back() - rises[2]) /
        static_cast<double>(rises.size() - 3) / 1000.0;
  }
  out.fe = sim::checkFlowEquivalence(ss, sd);
  return out;
}

TEST(Desync, CounterIsFlowEquivalent) {
  nl::Design d;
  designs::buildCounter(d, gf(), 8);
  FlowResult r = runFlow(d, "counter", 30);
  EXPECT_TRUE(r.fe.equivalent) << (r.fe.details.empty()
                                       ? "?"
                                       : r.fe.details[0]);
  EXPECT_GT(r.fe.values_compared, 100u);
  EXPECT_GT(r.eff_period_ns, 0.5);
}

TEST(Desync, Pipe2IsFlowEquivalent) {
  nl::Design d;
  designs::buildPipe2(d, gf(), 8);
  FlowResult r = runFlow(d, "pipe2", 30);
  EXPECT_TRUE(r.fe.equivalent) << (r.fe.details.empty()
                                       ? "?"
                                       : r.fe.details[0]);
}

TEST(Desync, LfsrIsFlowEquivalent) {
  nl::Design d;
  designs::buildLfsr(d, gf(), 8);
  FlowResult r = runFlow(d, "lfsr", 40);
  EXPECT_TRUE(r.fe.equivalent) << (r.fe.details.empty()
                                       ? "?"
                                       : r.fe.details[0]);
}

TEST(Desync, DlxManualFourStageRegions) {
  nl::Design d;
  designs::buildCpu(d, gf(), designs::dlxConfig());
  core::DesyncOptions opt;
  opt.manual_seq_groups = {{"pc_", "ifid_"},
                           {"idex_"},
                           {"exmem_", "red_"},
                           {"rf_", "dmem_"}};
  FlowResult r = runFlow(d, "dlx", 40, opt);
  EXPECT_TRUE(r.fe.equivalent) << (r.fe.details.empty() ? "?"
                                                        : r.fe.details[0]);
  EXPECT_EQ(r.desync.regions.n_groups, 5);  // 4 stages + group 0
  EXPECT_GT(r.fe.elements_compared, 1500u);
  // Self-timed period in a sane band relative to the synchronous minimum.
  EXPECT_GT(r.eff_period_ns, r.desync.sync_min_period_ns);
  EXPECT_LT(r.eff_period_ns, r.desync.sync_min_period_ns * 4);
}

TEST(Desync, DlxAutomaticRegions) {
  nl::Design d;
  designs::buildCpu(d, gf(), designs::dlxConfig());
  FlowResult r = runFlow(d, "dlx", 25);
  EXPECT_TRUE(r.fe.equivalent) << (r.fe.details.empty() ? "?"
                                                        : r.fe.details[0]);
  EXPECT_GE(r.desync.regions.n_groups, 5);
}

TEST(Desync, TooShortDelayElementsBreakFlowEquivalence) {
  // The dashed region of Fig 5.3: when the matched delay is much shorter
  // than the logic, data is captured before it settled.  The long-path
  // design exercises its full critical path every cycle, so the corruption
  // is immediate and deterministic.
  {
    nl::Design d;
    designs::buildLongPath(d, gf(), 60);
    FlowResult ok = runFlow(d, "longpath", 30);
    EXPECT_TRUE(ok.fe.equivalent)
        << (ok.fe.details.empty() ? "?" : ok.fe.details[0]);
  }
  {
    nl::Design d;
    designs::buildLongPath(d, gf(), 60);
    core::DesyncOptions opt;
    opt.control.margin = 0.02;  // deliberately broken
    FlowResult bad = runFlow(d, "longpath", 30, opt);
    EXPECT_FALSE(bad.fe.equivalent);
  }
}

TEST(Desync, FullyDecoupledControllerBreaksFlowEquivalence) {
  // Fig 2.4's warning made concrete at gate level: the fully-decoupled
  // controller is hazard-free and live (see async tests), but its extra
  // concurrency lets a producer reopen while a consumer is still sampling,
  // and flow-equivalence is lost on multi-region designs.  The
  // semi-decoupled controller on the same design is flow-equivalent.
  {
    nl::Design d;
    designs::buildPipe2(d, gf(), 8);
    core::DesyncOptions opt;
    opt.control.controller = desync::async::ControllerKind::kFullyDecoupled;
    FlowResult r = runFlow(d, "pipe2", 40, opt);
    EXPECT_FALSE(r.fe.equivalent);
  }
  {
    nl::Design d;
    designs::buildPipe2(d, gf(), 8);
    FlowResult r = runFlow(d, "pipe2", 40);  // default: semi-decoupled
    EXPECT_TRUE(r.fe.equivalent);
  }
}

TEST(Desync, ClockGatedDesignIsFlowEquivalent) {
  // Integrated clock gates become latched gating conditions ANDed into the
  // region enables (Fig 3.1d); the gated counter must store the exact same
  // (sparser) sequence as its synchronous version.
  nl::Design d;
  designs::buildClockGated(d, gf(), 4);
  FlowResult r = runFlow(d, "cgdesign", 40);
  EXPECT_TRUE(r.fe.equivalent) << (r.fe.details.empty() ? "?"
                                                        : r.fe.details[0]);
  // The gated counter really is gated: fewer captures than the free one.
  nl::Module& m = *d.findModule("cgdesign");
  EXPECT_FALSE(m.findCell("cg").valid());        // CGL dissolved
  EXPECT_TRUE(m.findCell("cg_cenLm").valid());   // gating latches present
  EXPECT_TRUE(m.findCell("cg_cenLs").valid());
}

TEST(Desync, HugeMarginSaturatesAtTheLongestDelayElement) {
  // The level count is clamped before its cast to int: a margin whose
  // target overflows int must give the 200-stage cap, not 1 stage.
  for (const double margin : {1.15, 1e300}) {
    nl::Design d;
    designs::buildCounter(d, gf(), 6);
    core::DesyncOptions opt;
    opt.control.reset_port = "rst_n";
    opt.control.reset_active_low = true;
    opt.control.margin = margin;
    const core::DesyncResult res =
        core::desynchronize(d, *d.findModule("counter"), gf(), opt);
    ASSERT_FALSE(res.control.regions.empty());
    for (const core::RegionControl& rc : res.control.regions) {
      if (margin > 1e3) {
        EXPECT_EQ(rc.delay_levels, 200) << "group " << rc.group;
      } else {
        EXPECT_LT(rc.delay_levels, 200) << "group " << rc.group;
      }
    }
  }
}

TEST(Desync, GeneratedSdcDescribesTheNetwork) {
  nl::Design d;
  designs::buildCounter(d, gf(), 6);
  nl::Design scratch;
  core::DesyncOptions opt;
  opt.control.reset_port = "rst_n";
  opt.control.reset_active_low = true;
  core::DesyncResult res =
      core::desynchronize(d, *d.findModule("counter"), gf(), opt);
  ASSERT_EQ(res.sdc.clocks.size(), 2u);
  EXPECT_EQ(res.sdc.clocks[0].name, "ClkM");
  EXPECT_EQ(res.sdc.clocks[1].name, "ClkS");
  EXPECT_FALSE(res.sdc.clocks[0].targets.empty());
  EXPECT_FALSE(res.sdc.disabled.empty());
  EXPECT_FALSE(res.sdc.size_only.empty());
  // Round-trips through text.
  desync::sta::SdcFile parsed = desync::sta::SdcFile::parse(res.sdc.toText());
  EXPECT_EQ(parsed.clocks.size(), 2u);
  EXPECT_EQ(parsed.disabled.size(), res.sdc.disabled.size());
}

TEST(Desync, DesynchronizedNetlistRoundTripsThroughVerilog) {
  nl::Design d;
  designs::buildCounter(d, gf(), 4);
  core::DesyncOptions opt;
  opt.control.reset_port = "rst_n";
  opt.control.reset_active_low = true;
  core::desynchronize(d, *d.findModule("counter"), gf(), opt);
  std::string text = nl::writeVerilog(*d.findModule("counter"));
  nl::Design d2;
  nl::readVerilog(d2, text, gf());
  EXPECT_EQ(d2.top().numCells(), d.findModule("counter")->numCells());
  EXPECT_TRUE(d2.top().checkInvariants().empty());
}

TEST(Desync, StaHandlesDesynchronizedCircuitWithSdcCuts) {
  nl::Design d;
  designs::buildCounter(d, gf(), 6);
  core::DesyncOptions opt;
  opt.control.reset_port = "rst_n";
  opt.control.reset_active_low = true;
  core::DesyncResult res =
      core::desynchronize(d, *d.findModule("counter"), gf(), opt);
  desync::sta::StaOptions so;
  so.disabled = res.sdc.disabled;
  desync::sta::Sta sta(*d.findModule("counter"), gf(), so);
  EXPECT_GT(sta.criticalPathNs(), 0.0);
}

}  // namespace
