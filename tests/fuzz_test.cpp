// Differential fuzzing subsystem tests: generator validity and determinism,
// the end-to-end oracle (honest and fault-injected), and the shrinker's
// convergence guarantees.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <set>
#include <string>

#include "designs/small.h"
#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "fuzz/shrink.h"
#include "liberty/gatefile.h"
#include "liberty/stdlib90.h"
#include "netlist/netlist.h"
#include "netlist/verilog.h"

namespace nl = desync::netlist;
namespace lib = desync::liberty;
namespace fuzz = desync::fuzz;
namespace designs = desync::designs;
namespace core = desync::core;

namespace {

const lib::Gatefile& gf() {
  static const lib::Library l = lib::makeStdLib90(lib::LibVariant::kHighSpeed);
  static const lib::Gatefile g(l);
  return g;
}

std::string smallDesignText(
    nl::Module& (*build)(nl::Design&, const lib::Gatefile&, int,
                         const std::string&),
    int param) {
  nl::Design d;
  return nl::writeVerilog(build(d, gf(), param, "dut"));
}

TEST(Generator, SameSeedSameNetlistDifferentSeedsDiffer) {
  const std::string a1 = fuzz::generateVerilog(gf(), 7);
  const std::string a2 = fuzz::generateVerilog(gf(), 7);
  EXPECT_EQ(a1, a2);

  std::set<std::string> texts;
  for (std::uint64_t s = 1; s <= 10; ++s) {
    texts.insert(fuzz::generateVerilog(gf(), s));
  }
  EXPECT_EQ(texts.size(), 10u) << "consecutive seeds collided";
}

TEST(Generator, ProducesValidSelfContainedDesigns) {
  for (std::uint64_t s = 1; s <= 25; ++s) {
    nl::Design d;
    nl::Module& m = fuzz::generateDesign(d, gf(), s);
    EXPECT_TRUE(m.checkInvariants().empty()) << "seed " << s;
    EXPECT_TRUE(m.findPort("clk").valid()) << "seed " << s;
    EXPECT_TRUE(m.findPort("rst_n").valid()) << "seed " << s;
    // Autonomous stimulus: clk and rst_n are the only inputs, so the
    // desynchronized version needs no clock-aligned data stimulus.
    for (const nl::Port& p : m.ports()) {
      if (p.dir != nl::PortDir::kInput) continue;
      const std::string name(d.names().str(p.name));
      EXPECT_TRUE(name == "clk" || name == "rst_n") << name;
    }
  }
}

TEST(Generator, ConfigShapesThePopulation) {
  fuzz::GeneratorConfig cfg;
  cfg.min_stages = 3;
  cfg.max_stages = 3;
  cfg.min_width = 4;
  cfg.max_width = 4;
  cfg.zero_output_percent = 0;
  for (std::uint64_t s = 1; s <= 5; ++s) {
    nl::Design d;
    nl::Module& m = fuzz::generateDesign(d, gf(), s, cfg);
    std::size_t ffs = 0;
    m.forEachCell([&](nl::CellId id) {
      if (gf().isFlipFlop(m.cellType(id))) ++ffs;
    });
    EXPECT_EQ(ffs, 12u) << "seed " << s;  // 3 stages x 4 bits
    // Multi-bit output buses come out as q[0]..q[3] (escaped identifiers
    // in the written Verilog); 1-bit stages degrade to a plain "q".
    EXPECT_TRUE(m.findPort("q[0]").valid() || m.findPort("q").valid())
        << "seed " << s;
  }
}

TEST(Oracle, HonestFlowPassesOnGeneratedPopulation) {
  for (std::uint64_t s = 1; s <= 15; ++s) {
    const std::string text = fuzz::generateVerilog(gf(), s);
    fuzz::OracleVerdict v = fuzz::runOracle(text, gf(), fuzz::OracleOptions());
    EXPECT_TRUE(v.ok) << "seed " << s << " failed " << v.check << ": "
                      << v.detail;
    EXPECT_GT(v.ffs_replaced, 0u) << "seed " << s;
    EXPECT_GE(v.regions, 1) << "seed " << s;
  }
}

TEST(Oracle, VerdictIsDeterministic) {
  const std::string text = fuzz::generateVerilog(gf(), 3);
  fuzz::OracleVerdict a = fuzz::runOracle(text, gf(), fuzz::OracleOptions());
  fuzz::OracleVerdict b = fuzz::runOracle(text, gf(), fuzz::OracleOptions());
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.check, b.check);
  EXPECT_EQ(a.detail, b.detail);
  EXPECT_EQ(a.values_compared, b.values_compared);
}

TEST(Oracle, CacheCheckPassesWithAndWithoutTheProver) {
  const std::filesystem::path scratch =
      std::filesystem::temp_directory_path() / "fuzz_test_cache";
  std::filesystem::create_directories(scratch);
  const std::string text = fuzz::generateVerilog(gf(), 5);
  for (const core::FeMode mode : {core::FeMode::kSim, core::FeMode::kProve}) {
    fuzz::OracleOptions o;
    o.scratch_dir = scratch.string();
    o.fe_mode = mode;
    fuzz::OracleVerdict v = fuzz::runOracle(text, gf(), o);
    EXPECT_TRUE(v.ok) << core::feModeName(mode) << ": " << v.check << ": "
                      << v.detail;
    // Only the prover-on check applies the seeded edit.
    EXPECT_EQ(v.eco_edit.empty(), mode == core::FeMode::kSim)
        << core::feModeName(mode) << ": " << v.eco_edit;
  }
  // The oracle removes its per-run cache directory on every path.
  EXPECT_TRUE(std::filesystem::is_empty(scratch));
  std::filesystem::remove_all(scratch);
}

TEST(Oracle, RejectsGarbageInput) {
  fuzz::OracleVerdict v = fuzz::runOracle("module broken (a; endmodule",
                                          gf(), fuzz::OracleOptions());
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.check, "parse");
}

TEST(Oracle, ToleratesHollowDesignsButFlagsFlowErrors) {
  // Port-only module: the flow runs to completion with zero substitutions,
  // and every storage-dependent check (FE, STA) passes vacuously — the
  // shrinker depends on hollowed-out candidates being judged, not crashed.
  fuzz::OracleVerdict empty = fuzz::runOracle(
      "module empty (clk, rst_n);\n  input clk;\n  input rst_n;\nendmodule\n",
      gf(), fuzz::OracleOptions());
  EXPECT_TRUE(empty.ok) << empty.check << ": " << empty.detail;
  EXPECT_EQ(empty.ffs_replaced, 0u);

  // A sequential design without the contractual rst_n port: the control
  // network pass throws mid-flow, surfaced as the "flow" check with the
  // failing pass named in the detail.
  fuzz::OracleVerdict v = fuzz::runOracle(
      "module noreset (clk);\n  input clk;\n  wire q, nq;\n"
      "  DFF t (.D(nq), .CP(clk), .Q(q));\n  IV i (.A(q), .Z(nq));\n"
      "endmodule\n",
      gf(), fuzz::OracleOptions());
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.check, "flow") << v.detail;
  EXPECT_NE(v.detail.find("control_network"), std::string::npos) << v.detail;
}

TEST(Oracle, DetectsFullyDecoupledControllerBug) {
  // Fig 2.4's warning, found differentially: the fully-decoupled
  // controller's extra concurrency breaks flow equivalence on a two-region
  // pipeline (core_test shows the same on the builder directly; here it
  // must surface through the text-level oracle).
  fuzz::OracleOptions o = fuzz::OracleOptions();
  o.fault = fuzz::FaultKind::kFullyDecoupled;
  o.cycles = 40;
  fuzz::OracleVerdict v =
      fuzz::runOracle(smallDesignText(designs::buildPipe2, 8), gf(), o);
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.check, "flow-equivalence") << v.detail;
}

TEST(Oracle, DetectsTooShortMatchedDelays) {
  // Fig 5.3's dashed region: matched delays far below the logic depth
  // capture data before it settled.  The long-path design exercises its
  // full critical path every cycle, so the corruption is deterministic.
  fuzz::OracleOptions o = fuzz::OracleOptions();
  o.fault = fuzz::FaultKind::kShortMargin;
  o.cycles = 30;
  fuzz::OracleVerdict v =
      fuzz::runOracle(smallDesignText(designs::buildLongPath, 60), gf(), o);
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.check, "flow-equivalence") << v.detail;
}

TEST(Oracle, FaultKindNamesRoundTrip) {
  for (fuzz::FaultKind k :
       {fuzz::FaultKind::kNone, fuzz::FaultKind::kFullyDecoupled,
        fuzz::FaultKind::kShortMargin, fuzz::FaultKind::kSelfTest}) {
    EXPECT_EQ(fuzz::parseFaultKind(fuzz::faultKindName(k)), k);
  }
  EXPECT_THROW(fuzz::parseFaultKind("bogus"), std::invalid_argument);
}

TEST(Shrink, PassingInputIsReturnedUnchanged) {
  const std::string text = fuzz::generateVerilog(gf(), 1);
  fuzz::ShrinkOptions so;
  so.oracle = fuzz::OracleOptions();
  fuzz::ShrinkResult r = fuzz::shrink(text, gf(), so);
  EXPECT_FALSE(r.failing);
  EXPECT_EQ(r.verilog, text);
  EXPECT_EQ(r.evals, 1);
}

TEST(Shrink, SelfTestFaultConvergesToMinimalRegister) {
  // The injected self-test failure holds as long as one latch pair exists,
  // so the reducer must reach a design of at most a few cells — well under
  // the <= 10 gate acceptance bar — and do so deterministically.
  fuzz::ShrinkOptions so;
  so.oracle = fuzz::OracleOptions();
  so.oracle.fault = fuzz::FaultKind::kSelfTest;
  const std::string text = fuzz::generateVerilog(gf(), 1);

  fuzz::ShrinkResult a = fuzz::shrink(text, gf(), so);
  EXPECT_TRUE(a.failing);
  EXPECT_EQ(a.check, "self-test");
  EXPECT_LE(a.final_cells, 10u);
  EXPECT_LT(a.final_cells, a.initial_cells);

  fuzz::ShrinkResult b = fuzz::shrink(text, gf(), so);
  EXPECT_EQ(a.verilog, b.verilog) << "shrinker is not deterministic";
  EXPECT_EQ(a.evals, b.evals);

  // The reproducer still fails the same check when replayed standalone.
  fuzz::OracleVerdict v = fuzz::runOracle(a.verilog, gf(), so.oracle);
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.check, "self-test");
}

TEST(Shrink, PreservesRealFlowEquivalenceFailures) {
  // A genuine bug (fully-decoupled controller) must survive reduction: the
  // result still fails flow-equivalence and still holds >= 2 registers in
  // >= 2 regions (one register alone cannot break FE this way).
  fuzz::ShrinkOptions so;
  so.oracle = fuzz::OracleOptions();
  so.oracle.fault = fuzz::FaultKind::kFullyDecoupled;
  const std::string text = fuzz::generateVerilog(gf(), 2);
  fuzz::OracleVerdict before = fuzz::runOracle(text, gf(), so.oracle);
  ASSERT_FALSE(before.ok);
  ASSERT_EQ(before.check, "flow-equivalence");

  fuzz::ShrinkResult r = fuzz::shrink(text, gf(), so);
  EXPECT_TRUE(r.failing);
  EXPECT_EQ(r.check, "flow-equivalence");
  EXPECT_LT(r.final_cells, r.initial_cells);

  fuzz::OracleVerdict after = fuzz::runOracle(r.verilog, gf(), so.oracle);
  EXPECT_FALSE(after.ok);
  EXPECT_EQ(after.check, "flow-equivalence");
  EXPECT_GE(after.ffs_replaced, 2u);
  EXPECT_GE(after.regions, 2);
}

}  // namespace
