// Content-addressed proof cache (docs/eco.md): slot storage and the
// warm/cold lifecycle, which registers each scripted edit kind re-proves
// (cell insertion, constant tie, net rename, multi-fanout reroute — exactly
// the registers an independent forward walk reaches; across the DLX's
// regions, those of them whose canonical miter reads the edit), the
// byte-identity guarantee for Verilog, SDC and per-register proof records
// against uncached flows at --jobs 1 and 4 on the DLX and ARM-class case
// studies, a register migrating between automatic regions, the protocol
// verdict of a fully-decoupled prove run through the cache, option-only
// changes (margin, mux taps, controller, reset wiring) reusing every
// proof, the inert prover-off cache, and every degradation path (corrupt
// slot, truncated slot, older format, another conflict budget, foreign
// design) re-proving — never reusing a wrong proof.
//
// The TSan variant (eco_test_tsan, DESYNC_ECO_TEST_LIGHT) drops the CPU
// case studies and re-runs the pipe2 tests with the flow's parallel
// sections race-checked.
#include <sys/stat.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/desync.h"
#include "core/eco.h"
#include "core/parallel.h"
#include "designs/cpu.h"
#include "designs/small.h"
#include "flowdb/cache.h"
#include "flowdb/io.h"
#include "liberty/stdlib90.h"
#include "netlist/netlist.h"
#include "netlist/verilog.h"

namespace core = desync::core;
namespace designs = desync::designs;
namespace lib = desync::liberty;
namespace nl = desync::netlist;
namespace symfe = desync::sim::symfe;
namespace fs = std::filesystem;

namespace {

const lib::Gatefile& gf() {
  static const lib::Library l = lib::makeStdLib90(lib::LibVariant::kHighSpeed);
  static const lib::Gatefile g(l);
  return g;
}

/// Fresh per-test scratch directory under the gtest temp root.
fs::path scratchDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("eco_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// The cache only holds proofs, so every cached run here proves.
core::DesyncOptions ecoOptions(const std::string& cache_dir) {
  core::DesyncOptions opt;
  opt.control.reset_port = "rst_n";
  opt.control.reset_active_low = true;
  opt.fe.mode = core::FeMode::kProve;
  opt.flowdb.cache_dir = cache_dir;
  return opt;
}

struct FlowOutput {
  std::string verilog;
  std::string sdc;
  core::DesyncResult result;
};

/// Builds pipe2, applies `edit` (may be empty) and desynchronizes.
template <typename Edit>
FlowOutput runPipe2(const core::DesyncOptions& opt, Edit&& edit) {
  nl::Design design;
  designs::buildPipe2(design, gf(), 8);
  nl::Module& m = *design.findModule("pipe2");
  edit(m);
  FlowOutput out;
  out.result = core::desynchronize(design, m, gf(), opt);
  // Whole-design output, exactly the CLI surface: helper modules (delay
  // elements, controllers) must match too, not just the top module.
  out.verilog = nl::writeVerilog(design);
  out.sdc = out.result.sdc.toText();
  return out;
}

FlowOutput runPipe2(const core::DesyncOptions& opt) {
  return runPipe2(opt, [](nl::Module&) {});
}

using ProofRecord =
    std::tuple<std::string, int, bool, std::uint64_t, std::uint64_t>;

/// Per-register proof records in report order: what a reused proof must
/// reproduce exactly.
std::vector<ProofRecord> records(const FlowOutput& run) {
  std::vector<ProofRecord> out;
  for (const symfe::RegisterProof& r : run.result.symfe.report.registers) {
    out.emplace_back(r.name, static_cast<int>(r.verdict), r.trivial,
                     r.conflicts, r.decisions);
  }
  return out;
}

/// Registers the run proved afresh instead of reusing a stored proof.
std::set<std::string> reproved(const FlowOutput& run) {
  std::set<std::string> out;
  for (const symfe::RegisterProof& r : run.result.symfe.report.registers) {
    if (!r.restored) out.insert(r.name);
  }
  return out;
}

/// Outputs and proof records of `got` equal those of `want`.
void expectSameFlow(const FlowOutput& got, const FlowOutput& want) {
  EXPECT_EQ(got.verilog, want.verilog);
  EXPECT_EQ(got.sdc, want.sdc);
  EXPECT_EQ(records(got), records(want));
  EXPECT_TRUE(want.result.symfe.ran);
}

/// Inserts an inverter in front of the data pin of the `skip`-th eligible
/// flip-flop (single-sink D net with a combinational driver) and names
/// that flip-flop in `*ff_name`.  Returns false when no such site exists.
bool insertInverter(nl::Module& m, int skip = 0,
                    std::string* ff_name = nullptr) {
  const std::string tag = "eco_fix" + std::to_string(skip);
  std::vector<nl::CellId> ffs;
  m.forEachCell([&](nl::CellId c) {
    if (gf().isFlipFlop(m.cellType(c))) ffs.push_back(c);
  });
  for (nl::CellId ff : ffs) {
    const lib::SeqClass* sc = gf().seqClass(m.cellType(ff));
    if (sc == nullptr || sc->data_pin.empty()) continue;
    const nl::NetId d = m.pinNet(ff, sc->data_pin);
    if (!d.valid()) continue;
    const nl::Net& n = m.net(d);
    if (!n.driver.isCellPin() || m.sinks(d).size() != 1) continue;
    const nl::CellId drv = n.driver.cell();
    if (gf().kind(m.cellType(drv)) != lib::CellKind::kCombinational) {
      continue;
    }
    // An earlier inserted inverter keeps its FF eligible; don't stack
    // edits on one register across calls with increasing `skip`.
    if (m.cellName(drv).rfind("eco_fix", 0) == 0) continue;
    if (skip-- > 0) continue;
    const nl::NetId out = m.addNet(tag + "_z");
    m.addCell(tag + "_inv", "IV",
              {{"A", nl::PortDir::kInput, d},
               {"Z", nl::PortDir::kOutput, out}});
    m.connectPin(ff, m.findPin(ff, sc->data_pin), out);
    if (ff_name != nullptr) *ff_name = std::string(m.cellName(ff));
    return true;
  }
  return false;
}

/// Registers whose miter reads `start`, by an independent forward walk:
/// through combinational cells to every flip-flop input, and through a
/// clock gate's enable to the flip-flops its gated clock drives.
std::set<std::string> registersReached(const nl::Module& m,
                                       nl::NetId start) {
  std::set<std::string> regs;
  std::set<std::uint32_t> seen{start.value};
  std::vector<nl::NetId> work{start};
  const auto push = [&](nl::NetId n) {
    if (n.valid() && seen.insert(n.value).second) work.push_back(n);
  };
  while (!work.empty()) {
    const nl::NetId net = work.back();
    work.pop_back();
    for (const nl::TermRef& s : m.sinks(net)) {
      if (!s.isCellPin()) continue;
      const nl::CellId c = s.cell();
      const lib::CellKind kind = gf().kind(m.cellType(c));
      if (kind == lib::CellKind::kFlipFlop) {
        regs.insert(std::string(m.cellName(c)));
        continue;
      }
      if (kind == lib::CellKind::kClockGate) {
        for (const nl::PinConn& p : m.pins(c)) {
          if (p.dir != nl::PortDir::kOutput || !p.net.valid()) continue;
          for (const nl::TermRef& g : m.sinks(p.net)) {
            if (g.isCellPin() && gf().isFlipFlop(m.cellType(g.cell()))) {
              regs.insert(std::string(m.cellName(g.cell())));
            }
          }
        }
        continue;
      }
      if (kind != lib::CellKind::kCombinational) continue;
      for (const nl::PinConn& p : m.pins(c)) {
        if (p.dir == nl::PortDir::kOutput) push(p.net);
      }
    }
  }
  return regs;
}

/// Reroutes every sink of `net` through a fresh cell of `type` (IV or BF).
void rerouteThrough(nl::Module& m, nl::NetId net, const std::string& type) {
  const nl::NetId out = m.addNet("eco_reroute_z");
  m.redistributeSinks(net,
                      std::vector<nl::NetId>(m.sinks(net).size(), out));
  m.addCell("eco_reroute", type,
            {{"A", nl::PortDir::kInput, net},
             {"Z", nl::PortDir::kOutput, out}});
}

/// Ties the first combinational input pin found to constant `value`; the
/// registers the tied cell's outputs reach go to `*reached`.
bool tieFirstCombInput(nl::Module& m, bool value,
                       std::set<std::string>* reached) {
  bool done = false;
  m.forEachCell([&](nl::CellId c) {
    if (done ||
        gf().kind(m.cellType(c)) != lib::CellKind::kCombinational) {
      return;
    }
    const std::span<const nl::PinConn> pins = m.pins(c);
    for (std::size_t p = 0; p < pins.size(); ++p) {
      if (pins[p].dir == nl::PortDir::kInput && pins[p].net.valid()) {
        m.connectPin(c, p, m.constNet(value));
        done = true;
        break;
      }
    }
    if (!done) return;
    for (const nl::PinConn& pc : m.pins(c)) {
      if (pc.dir == nl::PortDir::kOutput && pc.net.valid()) {
        reached->merge(registersReached(m, pc.net));
      }
    }
  });
  return done;
}

/// Renames the first net whose driver and sinks are all cell pins, by
/// re-homing every terminal onto a fresh net.
bool renameFirstNet(nl::Module& m) {
  nl::NetId target;
  m.forEachNet([&](nl::NetId id) {
    if (target.valid()) return;
    if (!m.net(id).driver.isCellPin() || m.sinks(id).empty()) return;
    for (const nl::TermRef& s : m.sinks(id)) {
      if (!s.isCellPin()) return;
    }
    target = id;
  });
  if (!target.valid()) return false;
  const nl::NetId fresh =
      m.addNet(std::string(m.netName(target)) + "_renamed");
  const nl::TermRef driver = m.net(target).driver;
  m.connectPin(driver.cell(), driver.pin, fresh);
  m.redistributeSinks(target,
                      std::vector<nl::NetId>(m.sinks(target).size(),
                                             fresh));
  m.removeNet(target);
  return true;
}

/// The design's single ECO slot file inside `dir` ("eco-<module>.tbl").
fs::path slotPath(const fs::path& dir) {
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("eco-", 0) == 0) return e.path();
  }
  return {};
}

/// Inode and modification time of the slot: a rewrite renames a new file
/// into place, so both change.
using SlotStamp = std::pair<ino_t, std::int64_t>;
SlotStamp slotStamp(const fs::path& dir) {
  struct stat st {};
  if (::stat(slotPath(dir).c_str(), &st) != 0) {
    ADD_FAILURE() << "no proof-table slot in " << dir;
    return {};
  }
  return {st.st_ino,
          static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
              st.st_mtim.tv_nsec};
}

bool anyNoteContains(const core::FlowReport& flow, const std::string& what) {
  for (const std::string& n : flow.notes()) {
    if (n.find(what) != std::string::npos) return true;
  }
  return false;
}

/// Four independent clouds: register rK sits behind two NAND levels and
/// its cloud has a NAND tail to output port oK.  `bridge` adds one NAND
/// joining the tails of clouds 0 and 1 into a new port, which merges the
/// two clouds into one automatic region: a register changes region while
/// its own cone, and so its timing and next-state function, stay
/// untouched.
std::string migrationVerilog(bool bridge) {
  std::string ports = "clk, rst_n";
  std::string decls = "  input clk, rst_n;\n";
  std::string body;
  for (int k = 0; k < 4; ++k) {
    const std::string s = std::to_string(k);
    ports += ", a" + s + ", b" + s + ", c" + s + ", e" + s + ", o" + s +
             ", q" + s;
    decls += "  input a" + s + ", b" + s + ", c" + s + ", e" + s + ";\n" +
             "  output o" + s + ", q" + s + ";\n  wire n" + s + ", d" + s +
             ";\n";
    body += "  ND2 g" + s + "a (.A(a" + s + "), .B(b" + s + "), .Z(n" + s +
            "));\n  ND2 g" + s + "b (.A(n" + s + "), .B(c" + s + "), .Z(d" +
            s + "));\n  ND2 g" + s + "c (.A(n" + s + "), .B(e" + s +
            "), .Z(o" + s + "));\n  DFFR r" + s + " (.D(d" + s +
            "), .CP(clk), .CDN(rst_n), .Q(q" + s + "));\n";
  }
  if (bridge) {
    ports += ", ob";
    decls += "  output ob;\n";
    body += "  ND2 bridge (.A(o0), .B(o1), .Z(ob));\n";
  }
  return "module mig (" + ports + ");\n" + decls + body + "endmodule\n";
}

/// Desynchronizes `text`; `region_of` receives each original register's
/// region (through its "<ff>_Lm" master latch).
FlowOutput runText(const std::string& text, const core::DesyncOptions& opt,
                   std::map<std::string, int>* region_of = nullptr) {
  nl::Design design;
  nl::readVerilog(design, text, gf());
  nl::Module& m = design.top();
  FlowOutput out;
  out.result = core::desynchronize(design, m, gf(), opt);
  out.verilog = nl::writeVerilog(design);
  out.sdc = out.result.sdc.toText();
  if (region_of != nullptr) {
    const core::Regions& regions = out.result.regions;
    for (int g = 0; g < regions.n_groups; ++g) {
      for (nl::CellId c : regions.seq_cells[g]) {
        if (!m.isLiveCell(c)) continue;
        const std::string name(m.cellName(c));
        if (name.size() > 3 && name.compare(name.size() - 3, 3, "_Lm") == 0) {
          (*region_of)[name.substr(0, name.size() - 3)] = g;
        }
      }
    }
  }
  return out;
}

void expectSameProtocol(const desync::sim::symfe::ProtocolReport& got,
                        const desync::sim::symfe::ProtocolReport& want) {
  EXPECT_EQ(got.checked, want.checked);
  EXPECT_EQ(got.admissible, want.admissible);
  EXPECT_EQ(got.states_explored, want.states_explored);
  EXPECT_EQ(got.violation, want.violation);
  EXPECT_EQ(got.trace, want.trace);
}

}  // namespace

// --- lifecycle ------------------------------------------------------------

TEST(Eco, FirstRunIsColdAndStoresTheSlot) {
  const fs::path dir = scratchDir("first_cold");
  const FlowOutput run = runPipe2(ecoOptions(dir.string()));

  const core::FlowReport::EcoSection& eco = run.result.flow.eco();
  EXPECT_TRUE(eco.ran);
  EXPECT_FALSE(eco.warm);
  EXPECT_EQ(eco.proofs_loaded, 0);
  EXPECT_EQ(eco.registers_restored, 0);
  EXPECT_EQ(eco.proofs_stored,
            static_cast<std::int64_t>(run.result.symfe.report.proved));
  EXPECT_GT(eco.proofs_stored, 0);
  EXPECT_FALSE(slotPath(dir).empty())
      << "cold cached run must store the proof-table slot";

  // A cold cached run must not change output vs the plain flow.
  expectSameFlow(run, runPipe2(ecoOptions("")));
}

TEST(Eco, UneditedWarmRerunRestoresEverything) {
  const fs::path dir = scratchDir("warm_unedited");
  const FlowOutput cold = runPipe2(ecoOptions(dir.string()));
  const FlowOutput warm = runPipe2(ecoOptions(dir.string()));

  expectSameFlow(warm, cold);
  const core::FlowReport::EcoSection& eco = warm.result.flow.eco();
  EXPECT_TRUE(eco.warm);
  EXPECT_EQ(eco.proofs_loaded, cold.result.flow.eco().proofs_stored);
  EXPECT_EQ(eco.registers_restored,
            static_cast<std::int64_t>(warm.result.symfe.report.registers
                                          .size()));
  EXPECT_TRUE(reproved(warm).empty());
}

TEST(Eco, ProverOffCacheDirIsInert) {
  const fs::path dir = scratchDir("prover_off") / "cache";
  core::DesyncOptions opt = ecoOptions(dir.string());
  opt.fe.mode = core::FeMode::kSim;
  const FlowOutput run = runPipe2(opt);
  core::DesyncOptions plain = opt;
  plain.flowdb.cache_dir.clear();
  const FlowOutput reference = runPipe2(plain);

  EXPECT_EQ(run.verilog, reference.verilog);
  EXPECT_EQ(run.sdc, reference.sdc);
  EXPECT_FALSE(fs::exists(dir)) << "nothing is stored without the prover";
  EXPECT_FALSE(run.result.flow.eco().ran);
  EXPECT_FALSE(run.result.flow.cacheStats().enabled);
  EXPECT_EQ(run.result.flow.find("eco_load"), nullptr);
  EXPECT_EQ(run.result.flow.notes().size(), 1u);
  EXPECT_TRUE(anyNoteContains(run.result.flow, "prover is off"));
}

// --- which registers an edit re-proves ------------------------------------

TEST(Eco, SingleCellEditDirtiesOnlyItsClosureAndMatchesCold) {
  const fs::path dir = scratchDir("cell_edit");
  runPipe2(ecoOptions(dir.string()));  // prime on the pristine design

  std::string edited_ff;
  const auto edit = [&edited_ff](nl::Module& m) {
    ASSERT_TRUE(insertInverter(m, 0, &edited_ff));
  };
  const FlowOutput cold = runPipe2(ecoOptions(""), edit);
  const FlowOutput warm = runPipe2(ecoOptions(dir.string()), edit);

  expectSameFlow(warm, cold);
  EXPECT_TRUE(warm.result.flow.eco().warm);
  // The inverter sits on the register's single-sink D net: its miter is
  // the only one that changed.
  EXPECT_EQ(reproved(warm), std::set<std::string>{edited_ff});
}

TEST(Eco, ConstantTieEditMatchesCold) {
  const fs::path dir = scratchDir("const_tie");
  runPipe2(ecoOptions(dir.string()));

  std::set<std::string> reached;
  const auto edit = [&reached](nl::Module& m) {
    ASSERT_TRUE(tieFirstCombInput(m, true, &reached));
  };
  const FlowOutput cold = runPipe2(ecoOptions(""), edit);
  const FlowOutput warm = runPipe2(ecoOptions(dir.string()), edit);

  expectSameFlow(warm, cold);
  EXPECT_TRUE(warm.result.flow.eco().warm);
  EXPECT_FALSE(reached.empty());
  EXPECT_EQ(reproved(warm), reached);
}

TEST(Eco, NetRenameEditMatchesCold) {
  const fs::path dir = scratchDir("net_rename");
  runPipe2(ecoOptions(dir.string()));

  const auto edit = [](nl::Module& m) { ASSERT_TRUE(renameFirstNet(m)); };
  const FlowOutput cold = runPipe2(ecoOptions(""), edit);
  const FlowOutput warm = runPipe2(ecoOptions(dir.string()), edit);

  expectSameFlow(warm, cold);
  EXPECT_TRUE(warm.result.flow.eco().warm);
  // Internal net names are not part of any miter.
  EXPECT_TRUE(reproved(warm).empty());
}

TEST(Eco, MultiFanoutEditReprovesExactlyTheReachedRegisters) {
  // Pick a comb-driven net whose forward cone reaches several registers
  // but not all, and reroute all its sinks through an inverter: every
  // reached register's miter changes, no other one does.
  std::string target_name;
  std::set<std::string> reached;
  std::size_t n_regs = 0;
  {
    nl::Design design;
    designs::buildPipe2(design, gf(), 8);
    const nl::Module& m = *design.findModule("pipe2");
    m.forEachCell([&](nl::CellId c) {
      if (gf().isFlipFlop(m.cellType(c))) ++n_regs;
    });
    m.forEachNet([&](nl::NetId id) {
      if (!target_name.empty()) return;
      const nl::Net& n = m.net(id);
      if (!n.driver.isCellPin() || m.sinks(id).size() < 2) return;
      if (gf().kind(m.cellType(n.driver.cell())) !=
          lib::CellKind::kCombinational) {
        return;
      }
      const std::set<std::string> regs = registersReached(m, id);
      if (regs.size() >= 2 && regs.size() < n_regs) {
        target_name = std::string(m.netName(id));
        reached = regs;
      }
    });
  }
  ASSERT_FALSE(target_name.empty())
      << "pipe2 must have a multi-sink net reaching some registers";

  const fs::path dir = scratchDir("multi_fanout");
  runPipe2(ecoOptions(dir.string()));
  const auto edit = [&target_name](nl::Module& m) {
    rerouteThrough(m, m.findNet(target_name), "IV");
  };
  const FlowOutput cold = runPipe2(ecoOptions(""), edit);
  for (const int jobs : {1, 4}) {
    SCOPED_TRACE("--jobs " + std::to_string(jobs));
    const fs::path copy = scratchDir("multi_fanout_j" + std::to_string(jobs));
    fs::copy(dir, copy, fs::copy_options::recursive);
    core::setThreadJobs(jobs);
    const FlowOutput warm = runPipe2(ecoOptions(copy.string()), edit);
    core::setThreadJobs(0);
    expectSameFlow(warm, cold);
    EXPECT_EQ(reproved(warm), reached);
  }
}

TEST(Eco, CleanRegisterMigratingBetweenRegionsMatchesCold) {
  const std::string pristine = migrationVerilog(false);
  const std::string edited = migrationVerilog(true);
  std::map<std::string, int> before;
  std::map<std::string, int> after;
  runText(pristine, ecoOptions(""), &before);
  const FlowOutput cold = runText(edited, ecoOptions(""), &after);
  ASSERT_EQ(before.size(), 4u);
  ASSERT_EQ(after.size(), 4u);
  ASSERT_NE(before.at("r0"), before.at("r1"));
  ASSERT_EQ(after.at("r0"), after.at("r1"))
      << "the bridge must merge the two clouds into one region";

  for (const int jobs : {1, 4}) {
    SCOPED_TRACE("--jobs " + std::to_string(jobs));
    const fs::path dir = scratchDir("migration_j" + std::to_string(jobs));
    runText(pristine, ecoOptions(dir.string()));  // prime
    core::setThreadJobs(jobs);
    const FlowOutput warm = runText(edited, ecoOptions(dir.string()));
    core::setThreadJobs(0);

    expectSameFlow(warm, cold);
    EXPECT_TRUE(warm.result.flow.eco().warm);
    // A region enable is cut to true in every miter, so changing region
    // changes no register's miter.
    EXPECT_TRUE(reproved(warm).empty());
  }
}

TEST(Eco, FullyDecoupledProtocolVerdictSurvivesTheCache) {
  const fs::path dir = scratchDir("fd_protocol");
  core::DesyncOptions cached = ecoOptions(dir.string());
  cached.control.controller = desync::async::ControllerKind::kFullyDecoupled;
  core::DesyncOptions plain = cached;
  plain.flowdb.cache_dir.clear();

  const FlowOutput uncached = runPipe2(plain);
  const auto& want = uncached.result.symfe.report.protocol;
  ASSERT_TRUE(want.checked);
  EXPECT_GT(want.states_explored, 0u);

  const FlowOutput cold = runPipe2(cached);
  const FlowOutput rerun = runPipe2(cached);
  EXPECT_TRUE(rerun.result.flow.eco().warm);
  EXPECT_GT(rerun.result.symfe.report.restored, 0u);
  for (const FlowOutput* run : {&cold, &rerun}) {
    expectSameProtocol(run->result.symfe.report.protocol, want);
    expectSameFlow(*run, uncached);
  }

  std::string edited_ff;
  const auto edit = [&edited_ff](nl::Module& m) {
    ASSERT_TRUE(insertInverter(m, 0, &edited_ff));
  };
  const FlowOutput edited_plain = runPipe2(plain, edit);
  const FlowOutput edited = runPipe2(cached, edit);
  EXPECT_TRUE(edited.result.flow.eco().warm);
  EXPECT_EQ(reproved(edited), std::set<std::string>{edited_ff});
  expectSameProtocol(edited.result.symfe.report.protocol,
                     edited_plain.result.symfe.report.protocol);
  expectSameFlow(edited, edited_plain);
}

// --- option changes -------------------------------------------------------

TEST(Eco, ControllerAndResetChangesReuseEveryProof) {
  // Neither the controller kind nor the reset wiring reaches a miter: the
  // controllers sit behind the region enables, which every miter cuts to
  // true.  Their proofs are reused; outputs still match uncached runs.
  const fs::path dir = scratchDir("guard_control");
  core::DesyncOptions simple = ecoOptions(dir.string());
  simple.control.controller = desync::async::ControllerKind::kSimple;
  core::DesyncOptions new_reset = ecoOptions(dir.string());
  new_reset.control.reset_port.clear();  // a fresh active-high "rst" port
  new_reset.control.reset_active_low = false;
  for (const core::DesyncOptions& opt : {simple, new_reset}) {
    runPipe2(ecoOptions(dir.string()));  // re-prime the default table
    const FlowOutput changed = runPipe2(opt);
    EXPECT_TRUE(changed.result.flow.eco().warm);
    EXPECT_EQ(changed.result.flow.cacheStats().hits, 1u);
    EXPECT_TRUE(reproved(changed).empty());
    core::DesyncOptions plain = opt;
    plain.flowdb.cache_dir.clear();
    expectSameFlow(changed, runPipe2(plain));
  }
}

TEST(Eco, GuardKeyMismatchFallsBackToCold) {
  // The conflict budget is part of every key: under another budget no
  // stored proof matches, and every register is proved afresh.
  const fs::path dir = scratchDir("guard");
  const FlowOutput primed = runPipe2(ecoOptions(dir.string()));

  core::DesyncOptions opt = ecoOptions(dir.string());
  opt.fe.prove_max_conflicts = 12345;
  const FlowOutput mismatched = runPipe2(opt);
  EXPECT_TRUE(mismatched.result.flow.eco().warm);
  EXPECT_EQ(mismatched.result.flow.eco().registers_restored, 0);
  EXPECT_EQ(reproved(mismatched).size(),
            mismatched.result.symfe.report.registers.size());

  core::DesyncOptions plain = opt;
  plain.flowdb.cache_dir.clear();
  expectSameFlow(mismatched, runPipe2(plain));
}

// --- degradation paths: cold, never wrong ---------------------------------

TEST(Eco, CorruptSlotFallsBackToColdThenRecovers) {
  const fs::path dir = scratchDir("corrupt");
  const FlowOutput cold = runPipe2(ecoOptions(dir.string()));

  const fs::path slot = slotPath(dir);
  ASSERT_FALSE(slot.empty());
  {
    std::fstream f(slot, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(slot) / 2));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x5a);
    f.write(&byte, 1);
  }

  const FlowOutput damaged = runPipe2(ecoOptions(dir.string()));
  EXPECT_FALSE(damaged.result.flow.eco().warm);
  EXPECT_TRUE(anyNoteContains(damaged.result.flow, "eco:"));
  EXPECT_EQ(damaged.result.flow.eco().registers_restored, 0);
  expectSameFlow(damaged, cold);

  // The damaged run rewrote the slot: the next run is warm again.
  const FlowOutput recovered = runPipe2(ecoOptions(dir.string()));
  EXPECT_TRUE(recovered.result.flow.eco().warm);
  expectSameFlow(recovered, cold);
}

TEST(Eco, TruncatedSlotFallsBackToCold) {
  const fs::path dir = scratchDir("truncated");
  const FlowOutput cold = runPipe2(ecoOptions(dir.string()));

  const fs::path slot = slotPath(dir);
  ASSERT_FALSE(slot.empty());
  fs::resize_file(slot, 10);

  const FlowOutput damaged = runPipe2(ecoOptions(dir.string()));
  EXPECT_FALSE(damaged.result.flow.eco().warm);
  EXPECT_TRUE(anyNoteContains(damaged.result.flow, "eco:"));
  expectSameFlow(damaged, cold);
}

TEST(Eco, OlderFormatSlotIsRejectedOnceAndRewritten) {
  const fs::path dir = scratchDir("old_format");
  const FlowOutput cold = runPipe2(ecoOptions(dir.string()));
  const fs::path slot = slotPath(dir);
  ASSERT_FALSE(slot.empty());
  const auto readSlot = [&] {
    std::ifstream f(slot, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(f), {});
  };
  const auto writeSlot = [&](const std::string& bytes) {
    std::ofstream f(slot, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  const std::string current = readSlot();
  const std::string payload(desync::flowdb::openEnvelope(
      current, "DSYNCECO", desync::flowdb::kCacheFormatVersion));
  // Intact slots of older versions: a cache directory revisited after an
  // upgrade.  Version 6 keyed proofs by pin-ordered cone hashes; even this
  // run's own tables sealed as version 6 must not be trusted.
  const std::pair<std::uint32_t, std::string> stale[] = {
      {desync::flowdb::kCacheFormatVersion - 1, "previous-format tables"},
      {6, payload}};
  for (const auto& [version, tables] : stale) {
    SCOPED_TRACE("version " + std::to_string(version));
    writeSlot(desync::flowdb::sealEnvelope("DSYNCECO", version, tables));

    const FlowOutput rejected = runPipe2(ecoOptions(dir.string()));
    EXPECT_FALSE(rejected.result.flow.eco().warm);
    EXPECT_TRUE(anyNoteContains(rejected.result.flow, "version"));
    EXPECT_EQ(reproved(rejected).size(),
              rejected.result.symfe.report.registers.size());
    expectSameFlow(rejected, cold);
    EXPECT_EQ(readSlot(), current) << "rewritten in the current format";

    const FlowOutput rewritten = runPipe2(ecoOptions(dir.string()));
    EXPECT_TRUE(rewritten.result.flow.eco().warm);
    EXPECT_TRUE(reproved(rewritten).empty());
    expectSameFlow(rewritten, cold);
  }
}

TEST(Eco, ForeignDesignSlotIsIgnored) {
  const fs::path dir = scratchDir("foreign");
  // Prime with a different module under the same cache directory, then
  // overwrite its slot name with pipe2's: the stored module name mismatch
  // must be detected.
  runPipe2(ecoOptions(dir.string()));
  const fs::path slot = slotPath(dir);
  ASSERT_FALSE(slot.empty());

  nl::Design other;
  designs::buildPipe2(other, gf(), 4, "pipe2b");
  nl::Module& om = *other.findModule("pipe2b");
  core::desynchronize(other, om, gf(), ecoOptions(dir.string()));
  const fs::path other_slot = dir / "eco-pipe2b.tbl";
  ASSERT_TRUE(fs::exists(other_slot));
  fs::copy_file(other_slot, slot, fs::copy_options::overwrite_existing);

  const FlowOutput run = runPipe2(ecoOptions(dir.string()));
  EXPECT_FALSE(run.result.flow.eco().warm);
  EXPECT_EQ(run.result.flow.eco().registers_restored, 0);
  EXPECT_TRUE(anyNoteContains(run.result.flow, "belongs to design"));
  expectSameFlow(run, runPipe2(ecoOptions("")));
}

TEST(Eco, BytesWrittenCountsTheStoredTables) {
  const fs::path dir = scratchDir("bytes_written");
  const FlowOutput cold = runPipe2(ecoOptions(dir.string()));
  const std::uint64_t slot_bytes = fs::file_size(slotPath(dir));
  const SlotStamp stored = slotStamp(dir);
  const FlowOutput warm = runPipe2(ecoOptions(dir.string()));

  // The report is published after the table is stored, so the cold run
  // accounts for the store: the slot on disk is its payload plus the
  // envelope.  The warm run proved exactly the stored table and leaves the
  // slot as it is.
  EXPECT_EQ(cold.result.flow.cacheStats().bytes_written +
                desync::flowdb::kEnvelopeOverhead,
            slot_bytes);
  EXPECT_EQ(warm.result.flow.cacheStats().bytes_written, 0u);
  EXPECT_EQ(warm.result.flow.eco().proofs_stored, 0);
  EXPECT_EQ(slotStamp(dir), stored);
  EXPECT_EQ(fs::file_size(slotPath(dir)), slot_bytes);
  EXPECT_EQ(cold.result.flow.cacheStats().hits, 0u);
  EXPECT_EQ(cold.result.flow.cacheStats().misses, 1u);
  EXPECT_EQ(warm.result.flow.cacheStats().hits, 1u);
  EXPECT_EQ(warm.result.flow.cacheStats().misses, 0u);
  EXPECT_GT(warm.result.flow.cacheStats().bytes_read, 0u);
  // The store is still an entry of the report.
  bool has_store = false;
  for (const auto& pass : warm.result.flow.passes()) {
    has_store = has_store || pass.name == "eco_store";
  }
  EXPECT_TRUE(has_store);
}

TEST(Eco, OneNewProofStillStoresTheTable) {
  const fs::path dir = scratchDir("one_new_proof");
  const FlowOutput cold = runPipe2(ecoOptions(dir.string()));
  const SlotStamp stored = slotStamp(dir);
  const FlowOutput edited = runPipe2(
      ecoOptions(dir.string()), [](nl::Module& m) { insertInverter(m); });

  ASSERT_EQ(reproved(edited).size(), 1u);
  EXPECT_GT(edited.result.flow.cacheStats().bytes_written, 0u);
  EXPECT_EQ(edited.result.flow.eco().proofs_stored,
            cold.result.flow.eco().proofs_stored);
  EXPECT_NE(slotStamp(dir), stored);
}

namespace {

/// Runs ProofCache::finish over proved registers with `keys` (one register
/// per key, all with the same record) and returns the bytes it wrote.
std::uint64_t storeProofs(const fs::path& dir,
                          const std::vector<std::uint64_t>& keys) {
  core::DesyncOptions opt = ecoOptions(dir.string());
  core::FlowReport flow;
  const auto cache = core::ProofCache::open(opt, "m", flow);
  EXPECT_NE(cache, nullptr);
  symfe::SymfeReport report;
  for (const std::uint64_t k : keys) {
    symfe::RegisterProof& r = report.registers.emplace_back();
    r.verdict = symfe::RegVerdict::kProved;
    r.conflicts = 3;
    r.key = desync::util::CacheKey{k, ~k};
  }
  cache->finish(report, flow, 0.0);
  return flow.cacheStats().bytes_written;
}

}  // namespace

TEST(Eco, OnlyAnUnchangedKeySetSkipsTheStore) {
  const fs::path dir = scratchDir("key_sets");
  EXPECT_GT(storeProofs(dir, {1, 2}), 0u);
  EXPECT_EQ(storeProofs(dir, {2, 1}), 0u);  // same set, other order
  // Two registers sharing a key cover less than the table: stored.
  EXPECT_GT(storeProofs(dir, {1, 1}), 0u);
  EXPECT_EQ(storeProofs(dir, {1, 1}), 0u);
  EXPECT_EQ(storeProofs(dir, {1}), 0u);
  EXPECT_GT(storeProofs(dir, {1, 3}), 0u);
  EXPECT_GT(storeProofs(dir, {1}), 0u);
}

// --- jobs-independence and the CPU case studies ---------------------------
// The instrumented TSan variant (DESYNC_ECO_TEST_LIGHT) keeps the pipe2
// tests above — which already exercise every cache path — and drops the
// minutes-long CPU flows.

#ifndef DESYNC_ECO_TEST_LIGHT

namespace {

/// Builds the CPU `config`, applies `edits` inverter insertions (their
/// registers go to `*edited`) and desynchronizes.
FlowOutput runCpu(const designs::CpuConfig& config,
                  const core::DesyncOptions& base, int edits,
                  std::set<std::string>* edited = nullptr) {
  nl::Design design;
  designs::buildCpu(design, gf(), config);
  nl::Module& m = *design.findModule(config.name);
  for (int i = 0; i < edits; ++i) {
    std::string ff;
    EXPECT_TRUE(insertInverter(m, i, &ff)) << "edit site " << i;
    if (edited != nullptr) edited->insert(ff);
  }
  FlowOutput out;
  core::DesyncOptions opt = base;
  if (config.name != "dlx") opt.manual_seq_groups = {{""}};
  out.result = core::desynchronize(design, m, gf(), opt);
  out.verilog = nl::writeVerilog(design);
  out.sdc = out.result.sdc.toText();
  return out;
}

void expectEcoIdenticalAtJobs1And4(const designs::CpuConfig& config,
                                   const std::string& tag, int edits) {
  const fs::path dir = scratchDir(tag);
  const fs::path primed = scratchDir(tag + "_primed");
  fs::remove_all(primed);

  runCpu(config, ecoOptions(dir.string()), 0);  // prime on pristine
  fs::copy(dir, primed, fs::copy_options::recursive);

  std::set<std::string> edited;
  const FlowOutput cold = runCpu(config, ecoOptions(""), edits, &edited);
  ASSERT_EQ(edited.size(), static_cast<std::size_t>(edits));

  core::setThreadJobs(1);
  const FlowOutput warm1 = runCpu(config, ecoOptions(dir.string()), edits);
  fs::remove_all(dir);
  fs::copy(primed, dir, fs::copy_options::recursive);
  core::setThreadJobs(4);
  const FlowOutput warm4 = runCpu(config, ecoOptions(dir.string()), edits);
  core::setThreadJobs(0);

  expectSameFlow(warm1, cold);
  expectSameFlow(warm4, cold);
  EXPECT_TRUE(warm1.result.flow.eco().warm);
  EXPECT_TRUE(warm4.result.flow.eco().warm);
  // Each edit inverts one register's single-sink D net.
  EXPECT_EQ(reproved(warm1), edited);
  EXPECT_EQ(reproved(warm4), edited);
}

/// A margin change and then a mux-tap change, each through the cache,
/// re-prove nothing (they only size delay elements, which no miter
/// reads) and still match an uncached prove run at the new options byte
/// for byte, record for record.
void expectKnobChangesRestoreEverything(const designs::CpuConfig& config,
                                        const std::string& tag) {
  const fs::path dir = scratchDir(tag);
  core::DesyncOptions opt = ecoOptions(dir.string());
  opt.control.margin = 1.15;
  runCpu(config, opt, 0);  // prime

  const auto change = [&](const char* what, auto&& apply) {
    SCOPED_TRACE(what);
    apply(opt);
    const FlowOutput warm = runCpu(config, opt, 0);
    core::DesyncOptions plain = opt;
    plain.flowdb.cache_dir.clear();
    const FlowOutput cold = runCpu(config, plain, 0);

    expectSameFlow(warm, cold);
    EXPECT_TRUE(cold.result.symfe.report.ok());
    EXPECT_TRUE(warm.result.flow.eco().warm);
    const auto& rep = warm.result.symfe.report;
    EXPECT_GT(rep.registers.size(), 0u);
    EXPECT_EQ(rep.restored, rep.registers.size()) << "registers re-proved";
  };
  change("margin 1.15 -> 1.25", [](core::DesyncOptions& o) {
    o.control.margin = 1.25;
  });
  change("mux_taps 0 -> 4", [](core::DesyncOptions& o) {
    o.control.mux_taps = 4;
  });
}

}  // namespace

TEST(EcoCpu, DlxMarginAndMuxTapChangesRestoreEveryRegionAndProof) {
  expectKnobChangesRestoreEverything(designs::dlxConfig(), "dlx_knobs");
}

TEST(EcoCpu, ArmClassMarginAndMuxTapChangesRestoreEveryRegionAndProof) {
  expectKnobChangesRestoreEverything(designs::armClassConfig(), "arm_knobs");
}

TEST(EcoCpu, DlxEditedRunByteIdenticalToColdAtJobs1And4) {
  expectEcoIdenticalAtJobs1And4(designs::dlxConfig(), "dlx_jobs", 5);
}

TEST(EcoCpu, ArmClassEditedRunByteIdenticalToColdAtJobs1And4) {
  expectEcoIdenticalAtJobs1And4(designs::armClassConfig(), "arm_jobs", 5);
}

TEST(EcoCpu, CrossRegionRippleClosesOverDownstreamRegions) {
  // A comb net of the DLX whose forward cone reaches registers in at least
  // two regions (per the primed run's partition).  Rerouting its sinks
  // through a buffer changes no miter (the proof graph collapses buffers);
  // through an inverter it changes the miters of the reached registers
  // that read it, across both regions.
  const designs::CpuConfig config = designs::dlxConfig();
  const fs::path dir = scratchDir("ripple");
  std::map<std::string, int> region_of;
  std::map<std::string, std::optional<desync::util::CacheKey>> key_before;
  {
    nl::Design design;
    designs::buildCpu(design, gf(), config);
    nl::Module& m = *design.findModule(config.name);
    const core::DesyncResult r =
        core::desynchronize(design, m, gf(), ecoOptions(dir.string()));
    for (const symfe::RegisterProof& p : r.symfe.report.registers) {
      key_before.emplace(p.name, p.key);
    }
    constexpr std::string_view kSuffix = "_Lm";
    for (int g = 0; g < r.regions.n_groups; ++g) {
      for (nl::CellId c : r.regions.seq_cells[g]) {
        if (!m.isLiveCell(c)) continue;
        const std::string_view name = m.cellName(c);
        if (name.size() <= kSuffix.size() ||
            name.substr(name.size() - kSuffix.size()) != kSuffix) {
          continue;
        }
        region_of.emplace(name.substr(0, name.size() - kSuffix.size()), g);
      }
    }
  }
  ASSERT_GT(region_of.size(), 0u);

  std::string target_name;
  std::set<std::string> reached;
  {
    nl::Design design;
    designs::buildCpu(design, gf(), config);
    const nl::Module& m = *design.findModule(config.name);
    m.forEachNet([&](nl::NetId id) {
      if (!target_name.empty()) return;
      const nl::Net& n = m.net(id);
      if (!n.driver.isCellPin() || m.sinks(id).empty()) return;
      if (gf().kind(m.cellType(n.driver.cell())) !=
          lib::CellKind::kCombinational) {
        return;
      }
      const std::set<std::string> regs = registersReached(m, id);
      std::set<int> regions;
      for (const std::string& r : regs) {
        const auto it = region_of.find(r);
        if (it != region_of.end()) regions.insert(it->second);
      }
      if (regions.size() >= 2) {
        target_name = std::string(m.netName(id));
        reached = regs;
      }
    });
  }
  ASSERT_FALSE(target_name.empty())
      << "DLX must have a comb net whose cone spans two regions";

  for (const char* type : {"BF", "IV"}) {
    SCOPED_TRACE(type);
    const fs::path copy = scratchDir(std::string("ripple_") + type);
    fs::copy(dir, copy, fs::copy_options::recursive);
    const auto edit = [&](nl::Design& design) {
      nl::Module& m = *design.findModule(config.name);
      rerouteThrough(m, m.findNet(target_name), type);
      return &m;
    };
    FlowOutput cold;
    FlowOutput warm;
    for (auto [out, cache] : {std::pair{&cold, std::string()},
                              std::pair{&warm, copy.string()}}) {
      nl::Design design;
      designs::buildCpu(design, gf(), config);
      nl::Module* m = edit(design);
      out->result = core::desynchronize(design, *m, gf(), ecoOptions(cache));
      out->verilog = nl::writeVerilog(design);
      out->sdc = out->result.sdc.toText();
    }
    expectSameFlow(warm, cold);
    EXPECT_TRUE(warm.result.flow.eco().warm);
    const std::set<std::string> again = reproved(warm);
    if (std::string(type) == "BF") {
      EXPECT_TRUE(again.empty());
      continue;
    }
    // The inverter changes the miter of every reached register whose
    // function reads the net.  A reached register may not: the DLX's
    // instruction ROM is a mux tree over constants, and a select whose
    // two data cones are equal constants drops out of the canonical
    // miter, so its key (and CNF) stays as it was.  Its restored proof is
    // exactly the cold one (expectSameFlow above).  The cache re-proves
    // exactly the registers whose key moved between the primed run and
    // the cold edited run, and of the reached registers it spares just
    // the nine ROM-fed instruction bits ifid_instr_r1..r9.
    std::set<std::string> moved;
    for (const symfe::RegisterProof& p : cold.result.symfe.report.registers) {
      const auto it = key_before.find(p.name);
      if (it == key_before.end() || it->second != p.key) moved.insert(p.name);
    }
    EXPECT_EQ(again, moved);
    std::set<std::string> expected = reached;
    for (int k = 1; k <= 9; ++k) {
      EXPECT_EQ(expected.erase("ifid_instr_r" + std::to_string(k)), 1u) << k;
    }
    EXPECT_EQ(again, expected);
    std::set<int> regions;
    for (const std::string& r : again) {
      const auto it = region_of.find(r);
      if (it != region_of.end()) regions.insert(it->second);
    }
    EXPECT_GE(regions.size(), 2u) << "the re-proofs cross regions";
  }
}

#endif  // DESYNC_ECO_TEST_LIGHT
