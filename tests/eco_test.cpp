// Incremental ECO recompute (docs/eco.md): table storage and
// the warm/cold lifecycle, dirtiness closures for every scripted edit
// kind (cell insertion, constant tie, net rename, fanout reroute), the
// byte-identity guarantee against cold flows of the edited design at
// --jobs 1 and 4 on the DLX and ARM-class case studies, a clean register
// migrating between automatic regions, the protocol verdict of a
// fully-decoupled prove run through the cache, option-only changes
// (margin, mux taps) restoring every region and proof, and every
// degradation path (corrupt slot, truncated slot, guard-key mismatch,
// foreign design) falling back to a cold run — never a wrong one.
//
// The TSan variant (eco_test_tsan, DESYNC_ECO_TEST_LIGHT) drops the two
// CPU case studies and re-runs the whole-closure pipe2 tests with the
// flow's parallel sections race-checked.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/desync.h"
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

core::DesyncOptions ecoOptions(const std::string& cache_dir) {
  core::DesyncOptions opt;
  opt.control.reset_port = "rst_n";
  opt.control.reset_active_low = true;
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

/// Inserts an inverter in front of the data pin of the `skip`-th eligible
/// flip-flop (single-sink D net with a combinational driver).  Returns
/// false when no such site exists.
bool insertInverter(nl::Module& m, int skip = 0) {
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
    if (!n.driver.isCellPin() || n.sinks.size() != 1) continue;
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
    return true;
  }
  return false;
}

/// Ties the first combinational input pin found to constant `value`.
bool tieFirstCombInput(nl::Module& m, bool value) {
  bool done = false;
  m.forEachCell([&](nl::CellId c) {
    if (done ||
        gf().kind(m.cellType(c)) != lib::CellKind::kCombinational) {
      return;
    }
    const std::vector<nl::PinConn>& pins = m.cell(c).pins;
    for (std::size_t p = 0; p < pins.size(); ++p) {
      if (pins[p].dir == nl::PortDir::kInput && pins[p].net.valid()) {
        m.connectPin(c, p, m.constNet(value));
        done = true;
        return;
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
    const nl::Net& n = m.net(id);
    if (!n.driver.isCellPin() || n.sinks.empty()) return;
    for (const nl::TermRef& s : n.sinks) {
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
                      std::vector<nl::NetId>(m.net(target).sinks.size(),
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
  EXPECT_EQ(eco.regions_restored, 0);
  EXPECT_EQ(eco.registers_restored, 0);
  EXPECT_FALSE(slotPath(dir).empty())
      << "cold cached run must store the region-table slot";

  // A cold cached run must not change output vs the plain flow.
  const FlowOutput plain = runPipe2(ecoOptions(""));
  EXPECT_EQ(run.verilog, plain.verilog);
  EXPECT_EQ(run.sdc, plain.sdc);
}

TEST(Eco, UneditedWarmRerunRestoresEverything) {
  const fs::path dir = scratchDir("warm_unedited");
  const FlowOutput cold = runPipe2(ecoOptions(dir.string()));
  const FlowOutput warm = runPipe2(ecoOptions(dir.string()));

  EXPECT_EQ(warm.verilog, cold.verilog);
  EXPECT_EQ(warm.sdc, cold.sdc);
  const core::FlowReport::EcoSection& eco = warm.result.flow.eco();
  EXPECT_TRUE(eco.warm);
  EXPECT_EQ(eco.cells_changed, 0);
  EXPECT_EQ(eco.nets_changed, 0);
  EXPECT_EQ(eco.dirty_endpoints, 0);
  EXPECT_EQ(eco.regions_dirty, 0);
  EXPECT_GT(eco.regions_total, 0);
  EXPECT_EQ(eco.regions_restored, eco.regions_total);
  EXPECT_GT(eco.endpoints_restored, 0);
}

// --- key invalidation per edit kind ---------------------------------------

TEST(Eco, SingleCellEditDirtiesOnlyItsClosureAndMatchesCold) {
  const fs::path dir = scratchDir("cell_edit");
  runPipe2(ecoOptions(dir.string()));  // prime on the pristine design

  const auto edit = [](nl::Module& m) { ASSERT_TRUE(insertInverter(m)); };
  const FlowOutput cold = runPipe2(ecoOptions(""), edit);
  const FlowOutput warm = runPipe2(ecoOptions(dir.string()), edit);

  EXPECT_EQ(warm.verilog, cold.verilog);
  EXPECT_EQ(warm.sdc, cold.sdc);
  const core::FlowReport::EcoSection& eco = warm.result.flow.eco();
  EXPECT_TRUE(eco.warm);
  EXPECT_GT(eco.cells_changed, 0);
  EXPECT_GT(eco.dirty_endpoints, 0);
  // The edit sits in one register's input cone: most endpoints stay clean.
  EXPECT_GT(eco.endpoints_restored, 0);
}

TEST(Eco, ConstantTieEditMatchesCold) {
  const fs::path dir = scratchDir("const_tie");
  runPipe2(ecoOptions(dir.string()));

  const auto edit = [](nl::Module& m) {
    ASSERT_TRUE(tieFirstCombInput(m, true));
  };
  const FlowOutput cold = runPipe2(ecoOptions(""), edit);
  const FlowOutput warm = runPipe2(ecoOptions(dir.string()), edit);

  EXPECT_EQ(warm.verilog, cold.verilog);
  EXPECT_EQ(warm.sdc, cold.sdc);
  EXPECT_TRUE(warm.result.flow.eco().warm);
  EXPECT_GT(warm.result.flow.eco().dirty_endpoints, 0);
}

TEST(Eco, NetRenameEditMatchesCold) {
  const fs::path dir = scratchDir("net_rename");
  runPipe2(ecoOptions(dir.string()));

  const auto edit = [](nl::Module& m) { ASSERT_TRUE(renameFirstNet(m)); };
  const FlowOutput cold = runPipe2(ecoOptions(""), edit);
  const FlowOutput warm = runPipe2(ecoOptions(dir.string()), edit);

  EXPECT_EQ(warm.verilog, cold.verilog);
  EXPECT_EQ(warm.sdc, cold.sdc);
  EXPECT_TRUE(warm.result.flow.eco().warm);
  // The rename changes the net's own record plus the records of every
  // cell whose pin list names the net.
  EXPECT_GT(warm.result.flow.eco().nets_changed, 0);
  EXPECT_GT(warm.result.flow.eco().cells_changed, 0);
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

    EXPECT_EQ(warm.verilog, cold.verilog);
    EXPECT_EQ(warm.sdc, cold.sdc);
    const core::FlowReport::EcoSection& eco = warm.result.flow.eco();
    EXPECT_TRUE(eco.warm);
    EXPECT_EQ(eco.dirty_endpoints, 0) << "no register's cone was edited";
    // Every member latch is clean and stored, so every region's
    // requirement restores — the merged one included.
    EXPECT_EQ(eco.regions_dirty, 0);
    EXPECT_EQ(eco.regions_restored, eco.regions_total);
  }
}

TEST(Eco, FullyDecoupledProtocolVerdictSurvivesTheCache) {
  const fs::path dir = scratchDir("fd_protocol");
  core::DesyncOptions cached = ecoOptions(dir.string());
  cached.control.controller = desync::async::ControllerKind::kFullyDecoupled;
  cached.fe.mode = core::FeMode::kProve;
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
    EXPECT_EQ(run->verilog, uncached.verilog);
  }

  const auto edit = [](nl::Module& m) { ASSERT_TRUE(insertInverter(m)); };
  const FlowOutput edited_plain = runPipe2(plain, edit);
  const FlowOutput edited = runPipe2(cached, edit);
  EXPECT_TRUE(edited.result.flow.eco().warm);
  EXPECT_GT(edited.result.flow.eco().dirty_endpoints, 0);
  expectSameProtocol(edited.result.symfe.report.protocol,
                     edited_plain.result.symfe.report.protocol);
  EXPECT_EQ(edited.verilog, edited_plain.verilog);
  EXPECT_EQ(edited.sdc, edited_plain.sdc);
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
  EXPECT_EQ(damaged.verilog, cold.verilog);
  EXPECT_EQ(damaged.sdc, cold.sdc);

  // The damaged run rewrote the slot: the next run is warm again.
  const FlowOutput recovered = runPipe2(ecoOptions(dir.string()));
  EXPECT_TRUE(recovered.result.flow.eco().warm);
  EXPECT_EQ(recovered.verilog, cold.verilog);
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
  EXPECT_EQ(damaged.verilog, cold.verilog);
  EXPECT_EQ(damaged.sdc, cold.sdc);
}

TEST(Eco, OlderFormatSlotIsRejectedOnceAndRewritten) {
  const fs::path dir = scratchDir("old_format");
  const FlowOutput cold = runPipe2(ecoOptions(dir.string()));
  const fs::path slot = slotPath(dir);
  ASSERT_FALSE(slot.empty());
  {
    // An intact slot sealed by the previous format version: a cache
    // directory revisited after an upgrade.
    const std::string sealed = desync::flowdb::sealEnvelope(
        "DSYNCECO", desync::flowdb::kCacheFormatVersion - 1,
        "previous-format tables");
    std::ofstream f(slot, std::ios::binary | std::ios::trunc);
    f.write(sealed.data(), static_cast<std::streamsize>(sealed.size()));
  }

  const FlowOutput rejected = runPipe2(ecoOptions(dir.string()));
  EXPECT_FALSE(rejected.result.flow.eco().warm);
  EXPECT_TRUE(anyNoteContains(rejected.result.flow, "version"));
  EXPECT_EQ(rejected.verilog, cold.verilog);
  EXPECT_EQ(rejected.sdc, cold.sdc);

  const FlowOutput rewritten = runPipe2(ecoOptions(dir.string()));
  EXPECT_TRUE(rewritten.result.flow.eco().warm);
  EXPECT_EQ(rewritten.verilog, cold.verilog);
}

TEST(Eco, GuardKeyMismatchFallsBackToCold) {
  const fs::path dir = scratchDir("guard");
  runPipe2(ecoOptions(dir.string()));  // primed with fe.mode = sim-off

  core::DesyncOptions opt = ecoOptions(dir.string());
  opt.fe.mode = core::FeMode::kProve;  // guard covers the FE mode
  const FlowOutput mismatched = runPipe2(opt);
  EXPECT_FALSE(mismatched.result.flow.eco().warm);
  EXPECT_TRUE(anyNoteContains(mismatched.result.flow,
                              "different flow configuration"));

  core::DesyncOptions plain = ecoOptions("");
  plain.fe.mode = core::FeMode::kProve;
  const FlowOutput reference = runPipe2(plain);
  EXPECT_EQ(mismatched.verilog, reference.verilog);
  EXPECT_EQ(mismatched.sdc, reference.sdc);
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
  EXPECT_TRUE(anyNoteContains(run.result.flow, "belong to design"));
}

TEST(Eco, ControllerAndResetChangesStillRunCold) {
  // Controller kind and reset wiring stay in the guard: the stored
  // protocol verdict and the network's reset structure depend on them.
  const fs::path dir = scratchDir("guard_control");
  core::DesyncOptions simple = ecoOptions(dir.string());
  simple.control.controller = desync::async::ControllerKind::kSimple;
  core::DesyncOptions new_reset = ecoOptions(dir.string());
  new_reset.control.reset_port.clear();  // a fresh active-high "rst" port
  new_reset.control.reset_active_low = false;
  for (const core::DesyncOptions& opt : {simple, new_reset}) {
    runPipe2(ecoOptions(dir.string()));  // re-prime the default tables
    const FlowOutput changed = runPipe2(opt);
    EXPECT_FALSE(changed.result.flow.eco().warm);
    EXPECT_EQ(changed.result.flow.cacheStats().hits, 0u);
    EXPECT_TRUE(anyNoteContains(changed.result.flow,
                                "different flow configuration"));
    core::DesyncOptions plain = opt;
    plain.flowdb.cache_dir.clear();
    const FlowOutput reference = runPipe2(plain);
    EXPECT_EQ(changed.verilog, reference.verilog);
    EXPECT_EQ(changed.sdc, reference.sdc);
  }
}

TEST(Eco, BytesWrittenCountsTheStoredTables) {
  const fs::path dir = scratchDir("bytes_written");
  const FlowOutput cold = runPipe2(ecoOptions(dir.string()));
  const FlowOutput warm = runPipe2(ecoOptions(dir.string()));
  const std::uint64_t slot_bytes = fs::file_size(slotPath(dir));

  // The report is published after the tables are stored, so both runs
  // account for the store; the slot on disk is the warm run's payload
  // plus its envelope.
  EXPECT_GT(cold.result.flow.cacheStats().bytes_written, 0u);
  EXPECT_EQ(warm.result.flow.cacheStats().bytes_written +
                desync::flowdb::kEnvelopeOverhead,
            slot_bytes);
  EXPECT_EQ(cold.result.flow.cacheStats().hits, 0u);
  EXPECT_EQ(cold.result.flow.cacheStats().misses, 1u);
  EXPECT_EQ(warm.result.flow.cacheStats().hits, 1u);
  EXPECT_EQ(warm.result.flow.cacheStats().misses, 0u);
  EXPECT_GT(warm.result.flow.cacheStats().bytes_read, 0u);
}

// --- jobs-independence and the CPU case studies ---------------------------
// The instrumented TSan variant (DESYNC_ECO_TEST_LIGHT) keeps the pipe2
// closure tests above — which already exercise every restore query — and
// drops the minutes-long CPU flows.

#ifndef DESYNC_ECO_TEST_LIGHT

namespace {

/// Builds the CPU `config`, applies `edits` inverter insertions and
/// desynchronizes.
FlowOutput runCpu(const designs::CpuConfig& config,
                  const core::DesyncOptions& base, int edits) {
  nl::Design design;
  designs::buildCpu(design, gf(), config);
  nl::Module& m = *design.findModule(config.name);
  for (int i = 0; i < edits; ++i) {
    EXPECT_TRUE(insertInverter(m, i)) << "edit site " << i;
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

  const FlowOutput cold = runCpu(config, ecoOptions(""), edits);

  core::setThreadJobs(1);
  const FlowOutput warm1 = runCpu(config, ecoOptions(dir.string()), edits);
  fs::remove_all(dir);
  fs::copy(primed, dir, fs::copy_options::recursive);
  core::setThreadJobs(4);
  const FlowOutput warm4 = runCpu(config, ecoOptions(dir.string()), edits);
  core::setThreadJobs(0);

  EXPECT_EQ(warm1.verilog, cold.verilog);
  EXPECT_EQ(warm1.sdc, cold.sdc);
  EXPECT_EQ(warm4.verilog, cold.verilog);
  EXPECT_EQ(warm4.sdc, cold.sdc);
  EXPECT_TRUE(warm1.result.flow.eco().warm);
  EXPECT_TRUE(warm4.result.flow.eco().warm);
  EXPECT_GT(warm1.result.flow.eco().regions_restored, 0);
  EXPECT_EQ(warm1.result.flow.eco().regions_restored,
            warm4.result.flow.eco().regions_restored);
  EXPECT_EQ(warm1.result.flow.eco().dirty_endpoints,
            warm4.result.flow.eco().dirty_endpoints);
}

}  // namespace

namespace {

/// Per-register verdicts of a prove run, in report order.
std::vector<std::pair<std::string, int>> verdicts(const FlowOutput& run) {
  std::vector<std::pair<std::string, int>> out;
  for (const auto& r : run.result.symfe.report.registers) {
    out.emplace_back(r.name, static_cast<int>(r.verdict));
  }
  return out;
}

/// The ECO guard leaves out the delay-element sizing knobs: a margin
/// change and then a mux-tap change, each through the cache, must restore
/// every region and every proof and still match an uncached prove run at
/// the new options byte for byte, verdict for verdict.
void expectKnobChangesRestoreEverything(const designs::CpuConfig& config,
                                        const std::string& tag) {
  const fs::path dir = scratchDir(tag);
  core::DesyncOptions opt = ecoOptions(dir.string());
  opt.fe.mode = core::FeMode::kProve;
  opt.control.margin = 1.15;
  runCpu(config, opt, 0);  // prime

  const auto change = [&](const char* what, auto&& apply) {
    SCOPED_TRACE(what);
    apply(opt);
    const FlowOutput warm = runCpu(config, opt, 0);
    core::DesyncOptions plain = opt;
    plain.flowdb.cache_dir.clear();
    const FlowOutput cold = runCpu(config, plain, 0);

    EXPECT_EQ(warm.verilog, cold.verilog);
    EXPECT_EQ(warm.sdc, cold.sdc);
    EXPECT_EQ(verdicts(warm), verdicts(cold));
    EXPECT_TRUE(cold.result.symfe.report.ok());
    const core::FlowReport::EcoSection& eco = warm.result.flow.eco();
    EXPECT_TRUE(eco.warm);
    EXPECT_GT(eco.regions_total, 0);
    EXPECT_EQ(eco.regions_restored, eco.regions_total);
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

namespace {

/// Regions reached by the forward combinational cone of `start`:
/// regions of every flip-flop fed (transitively through comb cells) by
/// the net, per the primed run's partition keyed by register name.
std::set<int> regionsInCone(const nl::Module& m, nl::NetId start,
                            const std::map<std::string, int>& region_of_ff) {
  std::set<int> regions;
  std::set<std::uint32_t> seen_cells;
  std::vector<nl::NetId> work{start};
  while (!work.empty()) {
    const nl::NetId net = work.back();
    work.pop_back();
    for (const nl::TermRef& s : m.net(net).sinks) {
      if (!s.isCellPin() || !seen_cells.insert(s.index).second) continue;
      const nl::CellId c = s.cell();
      if (gf().isFlipFlop(m.cellType(c))) {
        const auto it = region_of_ff.find(std::string(m.cellName(c)));
        if (it != region_of_ff.end()) regions.insert(it->second);
        continue;  // registers end the combinational cone
      }
      if (gf().kind(m.cellType(c)) != lib::CellKind::kCombinational) continue;
      for (const nl::PinConn& p : m.cell(c).pins) {
        if (p.dir == nl::PortDir::kOutput && p.net.valid()) {
          work.push_back(p.net);
        }
      }
    }
  }
  return regions;
}

}  // namespace

TEST(EcoCpu, CrossRegionRippleClosesOverDownstreamRegions) {
  const designs::CpuConfig config = designs::dlxConfig();
  const fs::path dir = scratchDir("ripple");

  // Prime on the pristine design and keep its latch-region partition:
  // member latches are named "<ff>_Lm", mapping every original register
  // to its region.
  std::map<std::string, int> region_of_ff;
  {
    nl::Design design;
    designs::buildCpu(design, gf(), config);
    nl::Module& m = *design.findModule(config.name);
    const core::DesyncResult r =
        core::desynchronize(design, m, gf(), ecoOptions(dir.string()));
    constexpr std::string_view kSuffix = "_Lm";
    for (int g = 0; g < r.regions.n_groups; ++g) {
      for (nl::CellId c : r.regions.seq_cells[g]) {
        if (!m.isLiveCell(c)) continue;
        const std::string_view name = m.cellName(c);
        if (name.size() <= kSuffix.size() ||
            name.substr(name.size() - kSuffix.size()) != kSuffix) {
          continue;
        }
        region_of_ff.emplace(name.substr(0, name.size() - kSuffix.size()), g);
      }
    }
  }
  ASSERT_GT(region_of_ff.size(), 0u);

  // Pick (on a fresh pristine copy, by walking the comb fanout) a
  // comb-driven net whose cone provably reaches registers in at least
  // two regions; reroute all of its sinks through a fresh inverter.
  std::string target_name;
  {
    nl::Design design;
    designs::buildCpu(design, gf(), config);
    const nl::Module& m = *design.findModule(config.name);
    m.forEachNet([&](nl::NetId id) {
      if (!target_name.empty()) return;
      const nl::Net& n = m.net(id);
      if (!n.driver.isCellPin() || n.sinks.empty()) return;
      if (gf().kind(m.cellType(n.driver.cell())) !=
          lib::CellKind::kCombinational) {
        return;
      }
      for (const nl::TermRef& s : n.sinks) {
        if (!s.isCellPin()) return;
      }
      if (regionsInCone(m, id, region_of_ff).size() >= 2) {
        target_name = std::string(m.netName(id));
      }
    });
  }
  ASSERT_FALSE(target_name.empty())
      << "DLX must have a comb net whose cone spans two regions";

  // A buffer, not an inverter: region grouping strips buffers
  // (clean_logic), so the partition itself is unchanged and the two
  // regions stay distinct — the ECO diff still sees the edit and must
  // dirty both downstream cones.
  const auto edit = [&target_name](nl::Module& m) {
    const nl::NetId target = m.findNet(target_name);
    ASSERT_TRUE(target.valid());
    const nl::NetId out = m.addNet("eco_ripple_z");
    m.redistributeSinks(target,
                        std::vector<nl::NetId>(m.net(target).sinks.size(),
                                               out));
    m.addCell("eco_ripple_buf", "BF",
              {{"A", nl::PortDir::kInput, target},
               {"Z", nl::PortDir::kOutput, out}});
  };

  nl::Design cold_design;
  designs::buildCpu(cold_design, gf(), config);
  nl::Module& cold_m = *cold_design.findModule(config.name);
  edit(cold_m);
  core::DesyncResult cold_r =
      core::desynchronize(cold_design, cold_m, gf(), ecoOptions(""));

  nl::Design warm_design;
  designs::buildCpu(warm_design, gf(), config);
  nl::Module& warm_m = *warm_design.findModule(config.name);
  edit(warm_m);
  core::DesyncResult warm_r = core::desynchronize(warm_design, warm_m, gf(),
                                                  ecoOptions(dir.string()));

  EXPECT_EQ(nl::writeVerilog(warm_design), nl::writeVerilog(cold_design));
  EXPECT_EQ(warm_r.sdc.toText(), cold_r.sdc.toText());
  const core::FlowReport::EcoSection& eco = warm_r.flow.eco();
  EXPECT_TRUE(eco.warm);
  EXPECT_GE(eco.regions_dirty, 2) << "multi-fanout edit must ripple across "
                                     "region boundaries";
  EXPECT_GT(eco.regions_restored, 0) << "the rest of the design must still "
                                        "restore";
}

#endif  // DESYNC_ECO_TEST_LIGHT
