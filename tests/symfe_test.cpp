// End-to-end tests of the symbolic flow-equivalence prover (sim/symfe):
// acceptance on the DLX pipeline (every replaced register proved, nothing
// skipped), determinism across --jobs, corpus replays through the fuzz
// oracle in prove/both mode, both-route agreement over generator seeds, a
// deliberately broken slave-latch cone that must be refuted with a
// counterexample replaying identically on both simulation engines, the
// combinational-only / vacuous-report honesty paths, and content-keyed
// proof reuse: reused proofs equal fresh ones, and a change confined to
// one gate's function or to the scan-enable, clock-gate-enable or
// slave-latch-enable cone re-proves exactly its register, while an edit
// that only shifts graph node ids leaves other registers' keys alone; a
// cone 30 000 gates deep is proved and refuted on a 512 KB thread stack.
#include <gtest/gtest.h>
#include <pthread.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/desync.h"
#include "core/parallel.h"
#include "designs/cpu.h"
#include "designs/small.h"
#include "dft/scan.h"
#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "liberty/bound.h"
#include "liberty/stdlib90.h"
#include "netlist/flatten.h"
#include "netlist/netlist.h"
#include "netlist/verilog.h"
#include "sim/symfe/symfe.h"

namespace nl = desync::netlist;
namespace lib = desync::liberty;
namespace core = desync::core;
namespace fuzz = desync::fuzz;
namespace designs = desync::designs;
namespace symfe = desync::sim::symfe;

namespace {

#ifdef DESYNC_SYMFE_TEST_LIGHT
constexpr std::uint64_t kSeeds = 20;  // instrumented (TSan) runs
#else
constexpr std::uint64_t kSeeds = 100;
#endif

const lib::Gatefile& gf() {
  static const lib::Library l = lib::makeStdLib90(lib::LibVariant::kHighSpeed);
  static const lib::Gatefile g(l);
  return g;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string corpusPath(const char* file) {
  return std::string(DESYNC_CORPUS_DIR) + "/" + file;
}

/// One flowed design pair: the pre-flow synchronous snapshot and the
/// converted module, plus the flow result (regions/DDG for the protocol
/// check).  Built once per shape; proofs are cheap, the flow is not.
struct FlowedPair {
  nl::Design sync;    ///< clone of the module before the flow
  nl::Design desync;  ///< design holding the converted module
  std::string top;
  core::DesyncResult result;
};

FlowedPair runFlow(nl::Design&& d, const std::string& top,
                   core::DesyncOptions opt = {}) {
  FlowedPair p;
  p.top = top;
  nl::cloneModule(p.sync, *d.findModule(top));
  p.desync = std::move(d);
  opt.control.reset_port = "rst_n";
  opt.control.reset_active_low = true;
  p.result = core::desynchronize(p.desync, *p.desync.findModule(top), gf(),
                                 opt);
  return p;
}

symfe::ProtocolInput protocolInput(const core::DesyncResult& r) {
  symfe::ProtocolInput pi;
  pi.n_groups = r.regions.n_groups;
  pi.active.resize(static_cast<std::size_t>(r.regions.n_groups));
  for (int g = 0; g < r.regions.n_groups; ++g) {
    pi.active[static_cast<std::size_t>(g)] =
        !r.regions.seq_cells[static_cast<std::size_t>(g)].empty();
  }
  pi.preds = r.ddg.preds;
  return pi;
}

/// The DLX pair with the four manual pipeline stages (thesis Fig 5.1) —
/// shared across tests because the flow itself dominates the runtime.
const FlowedPair& dlxPair() {
  static const FlowedPair p = [] {
    nl::Design d;
    designs::buildCpu(d, gf(), designs::dlxConfig());
    core::DesyncOptions opt;
    opt.manual_seq_groups = {{"pc_", "ifid_"},
                             {"idex_"},
                             {"exmem_", "red_"},
                             {"rf_", "dmem_"}};
    return runFlow(std::move(d), "dlx", opt);
  }();
  return p;
}

symfe::SymfeReport proveDlx() {
  const FlowedPair& p = dlxPair();
  const lib::BoundModule sb(p.sync.top(), gf());
  const lib::BoundModule db(*p.desync.findModule(p.top), gf());
  symfe::SymfeOptions so;
  so.protocol = protocolInput(p.result);
  return symfe::proveFlowEquivalence(sb, db, so);
}

// --------------------------------------------------------- acceptance

TEST(Symfe, DlxProvesEveryReplacedRegister) {
  const FlowedPair& p = dlxPair();
  const symfe::SymfeReport rep = proveDlx();
  // The PR's acceptance bar: zero refuted, zero skipped, one proof per
  // replaced flip-flop.
  for (const symfe::RegisterProof& r : rep.registers) {
    EXPECT_NE(r.verdict, symfe::RegVerdict::kRefuted)
        << r.name << ": " << r.reason;
    EXPECT_NE(r.verdict, symfe::RegVerdict::kSkipped)
        << r.name << ": " << r.reason;
  }
  EXPECT_EQ(rep.refuted, 0u);
  EXPECT_EQ(rep.skipped, 0u);
  EXPECT_EQ(rep.proved, rep.registers.size());
  EXPECT_EQ(rep.registers.size(), p.result.substitution.ffs_replaced);
  EXPECT_GT(rep.registers.size(), 100u);  // the DLX is not a toy
  EXPECT_FALSE(rep.comb_only);
  // Protocol admissibility over the 4-stage DDG.
  EXPECT_TRUE(rep.protocol.checked);
  EXPECT_TRUE(rep.protocol.admissible) << rep.protocol.violation;
  EXPECT_GT(rep.protocol.channels, 0);
  EXPECT_TRUE(rep.ok());
}

TEST(Symfe, DlxFlowPassWiresProver) {
  // The same property through the flow itself (--fe-mode prove): the
  // fe_prove pass must run, fill DesyncResult::symfe and agree with the
  // direct library call.
  nl::Design d;
  designs::buildCpu(d, gf(), designs::dlxConfig());
  core::DesyncOptions opt;
  opt.manual_seq_groups = {{"pc_", "ifid_"},
                           {"idex_"},
                           {"exmem_", "red_"},
                           {"rf_", "dmem_"}};
  opt.fe.mode = core::FeMode::kProve;
  FlowedPair p = runFlow(std::move(d), "dlx", opt);
  ASSERT_TRUE(p.result.symfe.ran);
  const symfe::SymfeReport& rep = p.result.symfe.report;
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.proved, p.result.substitution.ffs_replaced);
  EXPECT_TRUE(rep.protocol.checked);
  // Vector route stays off in prove mode.
  EXPECT_FALSE(p.result.fe.ran);
}

TEST(Symfe, DlxVerdictsDeterministicAcrossJobs) {
  core::setThreadJobs(1);
  const symfe::SymfeReport a = proveDlx();
  core::setThreadJobs(4);
  const symfe::SymfeReport b = proveDlx();
  core::setThreadJobs(0);
  ASSERT_EQ(a.registers.size(), b.registers.size());
  for (std::size_t i = 0; i < a.registers.size(); ++i) {
    const symfe::RegisterProof& ra = a.registers[i];
    const symfe::RegisterProof& rb = b.registers[i];
    ASSERT_EQ(ra.name, rb.name);
    EXPECT_EQ(ra.verdict, rb.verdict) << ra.name;
    EXPECT_EQ(ra.trivial, rb.trivial) << ra.name;
    EXPECT_EQ(ra.conflicts, rb.conflicts) << ra.name;
    EXPECT_EQ(ra.decisions, rb.decisions) << ra.name;
  }
  EXPECT_EQ(a.conflicts, b.conflicts);
  EXPECT_EQ(a.decisions, b.decisions);
}

// ------------------------------------------------------ corpus replays

TEST(Symfe, CorpusPassRunsCleanInProveAndBothModes) {
  const std::string src = readFile(corpusPath("fz_s12_pass.v"));
  ASSERT_FALSE(src.empty());
  for (const core::FeMode mode : {core::FeMode::kProve, core::FeMode::kBoth}) {
    fuzz::OracleOptions oo;
    oo.fe_mode = mode;
    const fuzz::OracleVerdict v = fuzz::runOracle(src, gf(), oo);
    EXPECT_TRUE(v.ok) << core::feModeName(mode) << ": " << v.check << ": "
                      << v.detail;
    EXPECT_GT(v.registers_proved, 0u) << core::feModeName(mode);
    EXPECT_FALSE(v.fe_vacuous);
  }
}

TEST(Symfe, CorpusFullyDecoupledFaultRefutedByProtocol) {
  // The fully-decoupled fault is invisible to any per-register cone (the
  // logic is untouched); the prove route must still fail the
  // flow-equivalence check, via the token-flow admissibility witness.
  const std::string src = readFile(corpusPath("fz_s2_flow-equivalence.v"));
  ASSERT_FALSE(src.empty());
  fuzz::OracleOptions oo;
  oo.check_cache = false;
  oo.fault = fuzz::FaultKind::kFullyDecoupled;
  oo.fe_mode = core::FeMode::kProve;
  const fuzz::OracleVerdict v = fuzz::runOracle(src, gf(), oo);
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.check, "flow-equivalence");
  EXPECT_NE(v.detail.find("not admissible"), std::string::npos) << v.detail;
  // The refutation ships a concrete firing trace, not a bare verdict.
  EXPECT_NE(v.detail.find("[trace:"), std::string::npos) << v.detail;
}

TEST(Symfe, CorpusSelfTestFaultUnaffectedByProveMode) {
  const std::string src = readFile(corpusPath("fz_s1_self-test.v"));
  ASSERT_FALSE(src.empty());
  fuzz::OracleOptions oo;
  oo.check_cache = false;
  oo.fault = fuzz::FaultKind::kSelfTest;
  oo.fe_mode = core::FeMode::kBoth;
  const fuzz::OracleVerdict v = fuzz::runOracle(src, gf(), oo);
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.check, "self-test");
}

// ----------------------------------------- both-route generator sweep

TEST(Symfe, GeneratorSeedsBothRoutesNeverDisagree) {
  // `--fe-mode both` runs the sampling vector check and the symbolic
  // prover back to back; the honest oracle must pass both on every seed
  // (either route failing fails the run), at two worker counts with
  // byte-identical verdicts.  The proof-cache check runs on every seed:
  // warm rerun, margin change and seeded edit, each against a cold flow.
  std::uint64_t edited = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::string src = fuzz::generateVerilog(gf(), seed);
    fuzz::OracleOptions oo;
    oo.fe_mode = core::FeMode::kBoth;
    core::setThreadJobs(1);
    const fuzz::OracleVerdict v1 = fuzz::runOracle(src, gf(), oo);
    core::setThreadJobs(4);
    const fuzz::OracleVerdict v4 = fuzz::runOracle(src, gf(), oo);
    core::setThreadJobs(0);
    ASSERT_TRUE(v1.ok) << "seed " << seed << ": " << v1.check << ": "
                       << v1.detail;
    ASSERT_EQ(v1.ok, v4.ok) << "seed " << seed;
    ASSERT_EQ(v1.check, v4.check) << "seed " << seed;
    ASSERT_EQ(v1.detail, v4.detail) << "seed " << seed;
    ASSERT_EQ(v1.registers_proved, v4.registers_proved) << "seed " << seed;
    ASSERT_EQ(v1.note, v4.note) << "seed " << seed;
    ASSERT_EQ(v1.eco_edit, v4.eco_edit) << "seed " << seed;
    if (!v1.eco_edit.empty()) ++edited;
    // The prover is never vacuous: every seed with replaced FFs proves
    // them, and FF-less seeds get output miters.
    if (v1.ffs_replaced > 0) {
      ASSERT_EQ(v1.registers_proved, v1.ffs_replaced) << "seed " << seed;
    } else {
      ASSERT_GT(v1.registers_proved, 0u) << "seed " << seed;
    }
  }
  // Most generated designs have an edit site; the edit step is not idle.
  EXPECT_GT(edited, kSeeds / 2);
}

// ------------------------------------- refutation + replay round-trip

TEST(Symfe, BrokenSlaveConeIsRefutedWithReplayableCounterexample) {
  // Desynchronize a counter correctly, then corrupt exactly one slave
  // latch: an inverter spliced into its D input.  The prover must refute
  // that register — and only that register — and the decoded
  // counterexample must replay identically on the bit-parallel and the
  // event-driven engine (solver model vs simulation divergence is a hard
  // failure, satellite 2).
  nl::Design d;
  designs::buildCounter(d, gf(), 8);
  FlowedPair p = runFlow(std::move(d), "counter");
  nl::Module& m = *p.desync.findModule(p.top);

  // First slave latch in cell order, deterministically.
  nl::CellId victim;
  m.forEachCell([&](nl::CellId id) {
    if (victim.valid()) return;
    const std::string_view name = m.cellName(id);
    if (name.size() > 3 && name.substr(name.size() - 3) == "_Ls") {
      victim = id;
    }
  });
  ASSERT_TRUE(victim.valid());
  const std::string victim_reg(
      m.cellName(victim).substr(0, m.cellName(victim).size() - 3));

  const std::size_t d_pin = m.findPin(victim, "D");
  ASSERT_NE(d_pin, static_cast<std::size_t>(-1));
  const nl::NetId old_d = m.pinNet(victim, "D");
  ASSERT_TRUE(old_d.valid());
  const nl::NetId inv_out = m.addNet("symfe_break_n");
  m.addCell("symfe_break_iv", "IV",
            {{"A", nl::PortDir::kInput, old_d},
             {"Z", nl::PortDir::kOutput, inv_out}});
  m.connectPin(victim, d_pin, inv_out);

  const lib::BoundModule sb(p.sync.top(), gf());
  const lib::BoundModule db(m, gf());
  const symfe::SymfeReport rep = symfe::proveFlowEquivalence(sb, db);
  EXPECT_EQ(rep.refuted, 1u);
  EXPECT_EQ(rep.skipped, 0u);
  bool saw_victim = false;
  for (const symfe::RegisterProof& r : rep.registers) {
    // Nothing may hide behind an internal error.
    EXPECT_EQ(r.reason.find("internal:"), std::string::npos)
        << r.name << ": " << r.reason;
    if (r.verdict != symfe::RegVerdict::kRefuted) continue;
    EXPECT_EQ(r.name, victim_reg);
    saw_victim = true;
    ASSERT_TRUE(r.cex.has_value()) << r.name;
    EXPECT_NE(r.cex->sync_value, r.cex->desync_value);
    const symfe::ReplayResult rr =
        symfe::replayCounterexample(sb, r.name, *r.cex);
    ASSERT_TRUE(rr.ran) << rr.detail;
    ASSERT_TRUE(rr.matches_solver) << rr.detail;
  }
  EXPECT_TRUE(saw_victim);
}

// ------------------------------------ comb-only and vacuous honesty

const char* kCombOnly = R"(
module combo (clk, rst_n, a, b, y, z);
  input clk, rst_n, a, b;
  output y, z;
  wire t;
  ND2 g1 (.A(a), .B(b), .Z(t));
  IV  g2 (.A(t), .Z(y));
  NR2 g3 (.A(t), .B(a), .Z(z));
endmodule
)";

TEST(Symfe, CombOnlyDesignGetsOutputMiters) {
  // No registers: the prover falls back to per-output-port miters instead
  // of a vacuous pass.
  nl::Design d;
  nl::readVerilog(d, kCombOnly, gf());
  FlowedPair p = runFlow(std::move(d), "combo");
  EXPECT_EQ(p.result.substitution.ffs_replaced, 0u);
  const lib::BoundModule sb(p.sync.top(), gf());
  const lib::BoundModule db(*p.desync.findModule(p.top), gf());
  const symfe::SymfeReport rep = symfe::proveFlowEquivalence(sb, db);
  EXPECT_TRUE(rep.comb_only);
  EXPECT_FALSE(rep.note.empty());
  EXPECT_EQ(rep.refuted, 0u);
  EXPECT_EQ(rep.skipped, 0u);
  EXPECT_EQ(rep.proved, 2u);  // one miter per output port (y, z)
  EXPECT_TRUE(rep.ok());
  for (const symfe::RegisterProof& r : rep.registers) {
    EXPECT_EQ(r.name.rfind("out:", 0), 0u) << r.name;
  }
}

TEST(Symfe, VacuousVectorCheckIsReportedNotSilent) {
  // Satellite 1: in sim mode a design without replaced FFs must say so.
  fuzz::OracleOptions oo;
  oo.fe_mode = core::FeMode::kSim;
  const fuzz::OracleVerdict vs = fuzz::runOracle(kCombOnly, gf(), oo);
  EXPECT_TRUE(vs.ok) << vs.check << ": " << vs.detail;
  EXPECT_TRUE(vs.fe_vacuous);
  EXPECT_NE(vs.note.find("vacuous"), std::string::npos) << vs.note;
  // In prove mode the same design is checked for real (output miters).
  oo.fe_mode = core::FeMode::kProve;
  const fuzz::OracleVerdict vp = fuzz::runOracle(kCombOnly, gf(), oo);
  EXPECT_TRUE(vp.ok) << vp.check << ": " << vp.detail;
  EXPECT_FALSE(vp.fe_vacuous);
  EXPECT_GT(vp.registers_proved, 0u);
}

// ------------------------------------------------ content-keyed reuse

const char* kKeyed = R"(
module keyed (clk, rst_n, a, b, si, se, en, q1, q2, q3);
  input clk, rst_n, a, b, si, se, en;
  output q1, q2, q3;
  wire n1, n2, gck;
  ND2  g1 (.A(a), .B(q1), .Z(n1));
  SDFF r1 (.D(n1), .SI(si), .SE(se), .CP(clk), .Q(q1));
  CGL  cg (.E(en), .CP(clk), .Z(gck));
  NR2  g2 (.A(b), .B(q2), .Z(n2));
  DFFR r2 (.D(n2), .CP(gck), .CDN(rst_n), .Q(q2));
  DFFR r3 (.D(q2), .CP(clk), .CDN(rst_n), .Q(q3));
endmodule
)";

/// kKeyed flowed: a scan register (r1), a clock-gated register (r2) and a
/// plain one (r3).
FlowedPair keyedPair() {
  nl::Design d;
  nl::readVerilog(d, kKeyed, gf());
  return runFlow(std::move(d), "keyed");
}

/// The proof table a cached run would store from `rep`.
symfe::ProofTable tableOf(const symfe::SymfeReport& rep) {
  symfe::ProofTable table;
  for (const symfe::RegisterProof& r : rep.registers) {
    if (r.key.has_value() && r.verdict == symfe::RegVerdict::kProved) {
      table.emplace(*r.key, symfe::StoredProof{r.trivial, r.conflicts,
                                               r.decisions});
    }
  }
  return table;
}

symfe::SymfeReport prove(const nl::Module& sync, const nl::Module& desync,
                         const symfe::ProofTable* table) {
  const lib::BoundModule sb(sync, gf());
  const lib::BoundModule db(desync, gf());
  symfe::SymfeOptions so;
  so.proof_table = table;
  return symfe::proveFlowEquivalence(sb, db, so);
}

const symfe::RegisterProof& proofOf(const symfe::SymfeReport& rep,
                                    const std::string& name) {
  for (const symfe::RegisterProof& r : rep.registers) {
    if (r.name == name) return r;
  }
  ADD_FAILURE() << "no proof for " << name;
  static const symfe::RegisterProof none;
  return none;
}

/// Proves `p`, applies `mutate` to one side, and proves again with the
/// first run's table: `victim`'s miter changed, so it must be proved
/// afresh (and refuted — the mutation breaks it) while every other
/// register reuses its proof.  A key that leaves out the mutated cone
/// would restore the stale proof instead.
template <typename Mutate>
void expectMutationReproves(const std::string& victim, Mutate&& mutate) {
  FlowedPair p = keyedPair();
  nl::Module& sync = p.sync.top();
  nl::Module& desync = *p.desync.findModule(p.top);
  symfe::ProofTable empty;
  const symfe::SymfeReport cold = prove(sync, desync, &empty);
  ASSERT_TRUE(cold.ok());
  const symfe::ProofTable table = tableOf(cold);
  ASSERT_EQ(table.size(), 3u) << "r1, r2 and r3 must all be keyed";

  mutate(sync, desync);
  const symfe::SymfeReport fresh = prove(sync, desync, nullptr);
  const symfe::SymfeReport reused = prove(sync, desync, &table);
  EXPECT_EQ(proofOf(fresh, victim).verdict, symfe::RegVerdict::kRefuted);
  EXPECT_FALSE(proofOf(reused, victim).restored);
  EXPECT_EQ(proofOf(reused, victim).verdict, symfe::RegVerdict::kRefuted);
  for (const symfe::RegisterProof& r : reused.registers) {
    if (r.name != victim) {
      EXPECT_TRUE(r.restored) << r.name;
    }
  }
}

TEST(Symfe, ProofTableReuseEqualsFreshProofs) {
  FlowedPair p = keyedPair();
  const nl::Module& sync = p.sync.top();
  const nl::Module& desync = *p.desync.findModule(p.top);
  const symfe::SymfeReport plain = prove(sync, desync, nullptr);
  symfe::ProofTable empty;
  const symfe::SymfeReport cold = prove(sync, desync, &empty);
  const symfe::ProofTable table = tableOf(cold);
  const symfe::SymfeReport warm = prove(sync, desync, &table);
  ASSERT_EQ(plain.registers.size(), 3u);
  EXPECT_TRUE(plain.ok());
  EXPECT_EQ(warm.restored, 3u);
  for (std::size_t i = 0; i < plain.registers.size(); ++i) {
    const symfe::RegisterProof& x = plain.registers[i];
    for (const symfe::SymfeReport* rep : {&cold, &warm}) {
      const symfe::RegisterProof& y = rep->registers[i];
      EXPECT_EQ(y.name, x.name);
      EXPECT_EQ(y.verdict, x.verdict);
      EXPECT_EQ(y.trivial, x.trivial);
      EXPECT_EQ(y.conflicts, x.conflicts);
      EXPECT_EQ(y.decisions, x.decisions);
    }
    EXPECT_TRUE(cold.registers[i].key.has_value());
    EXPECT_EQ(x.key, cold.registers[i].key) << "keys equal with and "
                                               "without a table";
    EXPECT_EQ(warm.registers[i].key, cold.registers[i].key);
  }
}

TEST(Symfe, ProofKeySeesTheScanEnableCone) {
  expectMutationReproves("r1", [](nl::Module& sync, nl::Module&) {
    const nl::CellId r1 = sync.findCell("r1");
    sync.connectPin(r1, sync.findPin(r1, "SE"), sync.constNet(true));
  });
}

TEST(Symfe, ProofKeySeesTheClockGateEnableCone) {
  expectMutationReproves("r2", [](nl::Module& sync, nl::Module&) {
    const nl::CellId cg = sync.findCell("cg");
    sync.connectPin(cg, sync.findPin(cg, "E"), sync.constNet(false));
  });
}

TEST(Symfe, ProofKeySeesGateFunctions) {
  // Same pins and nets, another function: r1's data gate g1 becomes an
  // AND on the desynchronized side only.
  expectMutationReproves("r1", [](nl::Module&, nl::Module& desync) {
    const nl::CellId g1 = desync.findCell("g1");
    ASSERT_TRUE(g1.valid());
    const nl::NetId a = desync.pinNet(g1, "A");
    const nl::NetId b = desync.pinNet(g1, "B");
    const nl::NetId z = desync.pinNet(g1, "Z");
    desync.removeCell(g1);
    desync.addCell("g1", "AN2",
                   {{"A", nl::PortDir::kInput, a},
                    {"B", nl::PortDir::kInput, b},
                    {"Z", nl::PortDir::kOutput, z}});
  });
}

TEST(Symfe, ProofKeySeesTheSlaveLatchEnableCone) {
  expectMutationReproves("r2", [](nl::Module&, nl::Module& desync) {
    const nl::CellId ls = desync.findCell("r2_Ls");
    ASSERT_TRUE(ls.valid());
    desync.connectPin(ls, desync.findPin(ls, "G"), desync.constNet(false));
  });
}

TEST(Symfe, KeysIgnoreUnrelatedEdits) {
  // r1's data gate reads a new AND of a and b on both sides: r1's miter
  // changes, and its walk (first in task order) now makes leaf b before
  // r2's walk makes r2's own state leaf.  r2's NR2 node therefore gets its
  // inputs in the other id order; keys and canonical forms order inputs
  // by content hash, so r2's and r3's keys must not move.
  FlowedPair p = keyedPair();
  nl::Module& sync = p.sync.top();
  nl::Module& desync = *p.desync.findModule(p.top);
  symfe::ProofTable empty;
  const symfe::SymfeReport before = prove(sync, desync, &empty);
  ASSERT_TRUE(before.ok());
  const symfe::ProofTable table = tableOf(before);
  for (nl::Module* m : {&sync, &desync}) {
    const nl::CellId g1 = m->findCell("g1");
    ASSERT_TRUE(g1.valid());
    const nl::NetId a = m->pinNet(g1, "A");
    const nl::NetId n0 = m->addNet("unrelated_n0");
    m->addCell("unrelated_an", "AN2",
               {{"A", nl::PortDir::kInput, a},
                {"B", nl::PortDir::kInput, m->findNet("b")},
                {"Z", nl::PortDir::kOutput, n0}});
    m->connectPin(g1, m->findPin(g1, "A"), n0);
  }
  const symfe::SymfeReport after = prove(sync, desync, &table);
  EXPECT_TRUE(after.ok());
  EXPECT_NE(proofOf(after, "r1").key, proofOf(before, "r1").key);
  EXPECT_FALSE(proofOf(after, "r1").restored);
  for (const char* reg : {"r2", "r3"}) {
    EXPECT_EQ(proofOf(after, reg).key, proofOf(before, reg).key) << reg;
    EXPECT_TRUE(proofOf(after, reg).restored) << reg;
  }
}

#ifndef DESYNC_SYMFE_TEST_LIGHT
constexpr int kDeepChain = 30000;

/// A chain of kDeepChain NAND gates, n1 = a NAND b and nk = n(k-1) NAND a
/// or b in turn, that no canonicalization collapses: every graph node
/// reads the one below it.  r1 and r2 capture its end.  On the desync side
/// each register is a master/slave latch pair, and r2's slave reads its
/// master through an inverter: a broken projection.  `reversed` declares
/// r2 before r1, so the prover meets the two tasks in the other order.
std::string deepChainVerilog(bool desync, bool reversed) {
  std::ostringstream v;
  v << "module deep (clk, a, b, q1, q2);\n"
       "  input clk, a, b;\n  output q1, q2;\n"
       "  wire m1, m2, m2n;\n";
  for (int k = 1; k <= kDeepChain; ++k) v << "  wire n" << k << ";\n";
  v << "  ND2 g1 (.A(a), .B(b), .Z(n1));\n";
  for (int k = 2; k <= kDeepChain; ++k) {
    v << "  ND2 g" << k << " (.A(n" << k - 1 << "), .B(" << "ab"[k % 2]
      << "), .Z(n" << k << "));\n";
  }
  const std::string end = "n" + std::to_string(kDeepChain);
  const auto reg = [&](int r) {
    const std::string q = "q" + std::to_string(r);
    const std::string m = "m" + std::to_string(r);
    const std::string name = "r" + std::to_string(r);
    if (!desync) {
      v << "  DFF " << name << " (.D(" << end << "), .CP(clk), .Q(" << q
        << "));\n";
      return;
    }
    v << "  LD " << name << "_Lm (.D(" << end << "), .G(G1_gm), .Q(" << m
      << "));\n";
    const std::string sd = r == 2 ? "m2n" : m;
    if (r == 2) v << "  IV r2_break (.A(m2), .Z(m2n));\n";
    v << "  LD " << name << "_Ls (.D(" << sd << "), .G(G1_gs), .Q(" << q
      << "));\n";
  };
  reg(reversed ? 2 : 1);
  reg(reversed ? 1 : 2);
  v << "endmodule\n";
  return v.str();
}

/// Runs `fn` on a fresh thread with a 512 KB stack: a walk that recursed
/// once per net would overflow it long before the end of the chain.
template <typename Fn>
void onSmallStack(Fn fn) {
  pthread_attr_t attr;
  pthread_attr_init(&attr);
  pthread_attr_setstacksize(&attr, std::size_t{512} << 10);
  pthread_t thread;
  ASSERT_EQ(pthread_create(
                &thread, &attr,
                [](void* f) -> void* {
                  (*static_cast<Fn*>(f))();
                  return nullptr;
                },
                &fn),
            0);
  pthread_join(thread, nullptr);
  pthread_attr_destroy(&attr);
}

TEST(Symfe, DeepConeIsProvedAndRefutedOnASmallStack) {
  // The graph walk, the CNF encoding (r2's miter is not trivial) and the
  // scalar recheck of r2's counterexample all go kDeepChain gates deep.
  struct Run {
    symfe::SymfeReport rep;
    symfe::ReplayResult replay;
  };
  const auto run = [](bool reversed, int jobs) {
    nl::Design sync;
    nl::Design desync;
    nl::readVerilog(sync, deepChainVerilog(false, reversed), gf());
    nl::readVerilog(desync, deepChainVerilog(true, reversed), gf());
    const lib::BoundModule sb(sync.top(), gf());
    const lib::BoundModule db(desync.top(), gf());
    Run out;
    onSmallStack([&] {
      const core::JobsScope scope(jobs);
      out.rep = symfe::proveFlowEquivalence(sb, db);
      const symfe::RegisterProof& r2 = proofOf(out.rep, "r2");
      if (r2.cex) {
        out.replay = symfe::replayCounterexample(sb, "r2", *r2.cex);
      }
    });
    return out;
  };
  const Run serial = run(false, 1);
  const symfe::RegisterProof& r1 = proofOf(serial.rep, "r1");
  const symfe::RegisterProof& r2 = proofOf(serial.rep, "r2");
  EXPECT_EQ(r1.verdict, symfe::RegVerdict::kProved) << r1.reason;
  EXPECT_TRUE(r1.trivial);
  EXPECT_TRUE(r1.key.has_value());
  ASSERT_EQ(r2.verdict, symfe::RegVerdict::kRefuted) << r2.reason;
  EXPECT_EQ(r2.reason.rfind("projection differs", 0), 0u) << r2.reason;
  EXPECT_TRUE(r2.key.has_value());
  ASSERT_TRUE(r2.cex.has_value());
  EXPECT_NE(r2.cex->sync_value, r2.cex->desync_value);
  EXPECT_TRUE(serial.replay.ran) << serial.replay.detail;
  EXPECT_TRUE(serial.replay.matches_solver) << serial.replay.detail;
  EXPECT_GT(serial.rep.graph_nodes, static_cast<std::size_t>(kDeepChain));

  // The other task order at --jobs 4: the same records and keys.
  const Run parallel = run(true, 4);
  EXPECT_EQ(parallel.rep.registers.front().name, "r2");
  for (const char* name : {"r1", "r2"}) {
    const symfe::RegisterProof& a = proofOf(serial.rep, name);
    const symfe::RegisterProof& b = proofOf(parallel.rep, name);
    EXPECT_EQ(a.verdict, b.verdict) << name;
    EXPECT_EQ(a.reason, b.reason) << name;
    EXPECT_EQ(a.trivial, b.trivial) << name;
    EXPECT_EQ(a.key, b.key) << name;
    EXPECT_EQ(a.conflicts, b.conflicts) << name;
    EXPECT_EQ(a.decisions, b.decisions) << name;
    ASSERT_EQ(a.cex.has_value(), b.cex.has_value()) << name;
    if (a.cex) {
      EXPECT_EQ(a.cex->inputs, b.cex->inputs) << name;
      EXPECT_EQ(a.cex->states, b.cex->states) << name;
      EXPECT_EQ(a.cex->frees, b.cex->frees) << name;
      EXPECT_EQ(a.cex->sync_value, b.cex->sync_value) << name;
      EXPECT_EQ(a.cex->desync_value, b.cex->desync_value) << name;
    }
  }
  EXPECT_TRUE(parallel.replay.matches_solver) << parallel.replay.detail;
}
#endif

// ------------------------------------------------- prover counters

/// The report's work counters over a cold proof and an identical warm
/// rerun: every proved register took a solver, was trivial, or was
/// restored; the rerun builds no solver; the shared graph never holds
/// more nodes than the two modules have nets.
void expectCountersAccountForEveryProof(const nl::Module& sync,
                                        const nl::Module& desync,
                                        const lib::Gatefile& g) {
  const lib::BoundModule sb(sync, g);
  const lib::BoundModule db(desync, g);
  symfe::SymfeOptions so;
  symfe::ProofTable empty;
  so.proof_table = &empty;
  const symfe::SymfeReport cold = symfe::proveFlowEquivalence(sb, db, so);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold.restored, 0u);
  EXPECT_EQ(cold.solvers + cold.trivial + cold.restored, cold.proved);
  EXPECT_GT(cold.solvers, 0u);
  EXPECT_GT(cold.graph_nodes, 0u);
  EXPECT_LE(cold.graph_nodes, sync.numNets() + desync.numNets());

  const symfe::ProofTable table = tableOf(cold);
  so.proof_table = &table;
  const symfe::SymfeReport warm = symfe::proveFlowEquivalence(sb, db, so);
  EXPECT_EQ(warm.solvers, 0u);
  EXPECT_EQ(warm.trivial, 0u);
  EXPECT_EQ(warm.restored, warm.proved);
  EXPECT_EQ(warm.proved, cold.proved);
  EXPECT_EQ(warm.graph_nodes, cold.graph_nodes);
}

TEST(Symfe, DlxCountersAccountForEveryProof) {
  const FlowedPair& p = dlxPair();
  expectCountersAccountForEveryProof(p.sync.top(),
                                     *p.desync.findModule(p.top), gf());
}

#ifndef DESYNC_SYMFE_TEST_LIGHT
TEST(Symfe, ArmClassCountersAccountForEveryProof) {
  // The ARM-class case study as bench_symfe flows it: scan inserted, one
  // region (paper §5.3).
  static const lib::Library ll =
      lib::makeStdLib90(lib::LibVariant::kLowLeakage);
  static const lib::Gatefile gll(ll);
  nl::Design d;
  designs::buildCpu(d, gll, designs::armClassConfig());
  nl::Module& top = *d.findModule("armlike");
  desync::dft::insertScan(top, gll);
  nl::Design sync;
  nl::cloneModule(sync, top);
  core::DesyncOptions opt;
  opt.control.reset_port = "rst_n";
  opt.control.reset_active_low = true;
  opt.manual_seq_groups = {{""}};
  opt.grouping.false_path_nets = {"scan_en"};
  core::desynchronize(d, top, gll, opt);
  expectCountersAccountForEveryProof(sync.top(), top, gll);
}
#endif

}  // namespace
