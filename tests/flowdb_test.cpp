// FlowDB: named-slot validation, cache-directory prover runs (warm == cold
// byte for byte at any --jobs, an option-only change reusing every proof),
// corrupt-slot fallback and flow failure reporting.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/desync.h"
#include "core/parallel.h"
#include "core/run_report.h"
#include "core/version.h"
#include "designs/cpu.h"
#include "flowdb/cache.h"
#include "flowdb/io.h"
#include "liberty/stdlib90.h"
#include "netlist/verilog.h"

namespace core = desync::core;
namespace designs = desync::designs;
namespace flowdb = desync::flowdb;
namespace lib = desync::liberty;
namespace nl = desync::netlist;

namespace {

const lib::Gatefile& gf() {
  static const lib::Library l = lib::makeStdLib90(lib::LibVariant::kHighSpeed);
  static const lib::Gatefile g(l);
  return g;
}

/// Fresh per-test scratch directory under the gtest temp root.
std::filesystem::path scratchDir(const std::string& name) {
  std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("flowdb_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

struct FlowOutput {
  std::string verilog;
  std::string sdc;
  core::DesyncResult result;
};

/// Builds the CPU `config` fresh and desynchronizes it with `opt`.
FlowOutput runCpuFlow(const designs::CpuConfig& config,
                      const core::DesyncOptions& opt) {
  nl::Design design;
  designs::buildCpu(design, gf(), config);
  nl::Module& m = *design.findModule(config.name);
  FlowOutput out;
  out.result = core::desynchronize(design, m, gf(), opt);
  out.verilog = nl::writeVerilog(design);
  out.sdc = out.result.sdc.toText();
  return out;
}

/// Prover on: the cache directory holds proofs only.
core::DesyncOptions cpuOptions(const std::string& cache_dir = {}) {
  core::DesyncOptions opt;
  opt.control.reset_port = "rst_n";
  opt.control.reset_active_low = true;
  opt.fe.mode = core::FeMode::kProve;
  opt.flowdb.cache_dir = cache_dir;
  return opt;
}

/// The warm run reused every proof from the proof table.
void expectEveryProofRestored(const FlowOutput& run) {
  const core::FlowReport::EcoSection& eco = run.result.flow.eco();
  const auto& rep = run.result.symfe.report;
  EXPECT_TRUE(eco.warm);
  EXPECT_GT(rep.registers.size(), 0u);
  EXPECT_EQ(rep.restored, rep.registers.size());
  EXPECT_EQ(eco.registers_restored,
            static_cast<std::int64_t>(rep.registers.size()));
}

}  // namespace

// --- cache directory: warm == cold, byte for byte -------------------------

TEST(FlowCache, WarmRunIsByteIdenticalToColdOnDlx) {
  const auto dir = scratchDir("dlx_warm");
  const designs::CpuConfig config = designs::dlxConfig();

  const FlowOutput plain = runCpuFlow(config, cpuOptions());
  const FlowOutput cold = runCpuFlow(config, cpuOptions(dir.string()));
  const FlowOutput warm = runCpuFlow(config, cpuOptions(dir.string()));

  // Caching must never alter output: cold-with-cache == no-cache, and the
  // warm run reproduces both byte-for-byte.
  EXPECT_EQ(cold.verilog, plain.verilog);
  EXPECT_EQ(cold.sdc, plain.sdc);
  EXPECT_EQ(warm.verilog, plain.verilog);
  EXPECT_EQ(warm.sdc, plain.sdc);

  // hits/misses count the design's proof-table slot.
  const core::FlowCacheStats& cold_stats = cold.result.flow.cacheStats();
  EXPECT_TRUE(cold_stats.enabled);
  EXPECT_EQ(cold_stats.hits, 0u);
  EXPECT_EQ(cold_stats.misses, 1u);
  EXPECT_EQ(cold_stats.bytes_read, 0u);
  EXPECT_GT(cold_stats.bytes_written, 0u);

  const core::FlowCacheStats& warm_stats = warm.result.flow.cacheStats();
  EXPECT_EQ(warm_stats.hits, 1u);
  EXPECT_EQ(warm_stats.misses, 0u);
  EXPECT_GT(warm_stats.bytes_read, 0u);
  EXPECT_GT(warm_stats.bytes_written, 0u);
  expectEveryProofRestored(warm);
}

TEST(FlowCache, WarmRunIsByteIdenticalToColdOnArmClass) {
  const auto dir = scratchDir("arm_warm");
  const designs::CpuConfig config = designs::armClassConfig();

  const FlowOutput cold = runCpuFlow(config, cpuOptions(dir.string()));
  const FlowOutput warm = runCpuFlow(config, cpuOptions(dir.string()));
  EXPECT_EQ(warm.verilog, cold.verilog);
  EXPECT_EQ(warm.sdc, cold.sdc);
  EXPECT_EQ(warm.result.flow.cacheStats().hits, 1u);
  expectEveryProofRestored(warm);
}

TEST(FlowCache, RestoredStateIsIdenticalAcrossJobsSettings) {
  const auto dir = scratchDir("dlx_jobs");
  const designs::CpuConfig config = designs::dlxConfig();

  // Cold at --jobs 1, warm at --jobs 8, warm again at auto: --jobs is not
  // part of the guard key and must not change a single output byte.
  core::setThreadJobs(1);
  const FlowOutput cold = runCpuFlow(config, cpuOptions(dir.string()));
  core::setThreadJobs(8);
  const FlowOutput warm8 = runCpuFlow(config, cpuOptions(dir.string()));
  core::setThreadJobs(0);
  const FlowOutput warm_auto = runCpuFlow(config, cpuOptions(dir.string()));

  EXPECT_EQ(warm8.result.flow.cacheStats().hits, 1u);
  EXPECT_EQ(warm_auto.result.flow.cacheStats().hits, 1u);
  EXPECT_EQ(warm8.verilog, cold.verilog);
  EXPECT_EQ(warm_auto.verilog, cold.verilog);
  EXPECT_EQ(warm8.sdc, cold.sdc);
  EXPECT_EQ(warm_auto.sdc, cold.sdc);
  expectEveryProofRestored(warm8);
  expectEveryProofRestored(warm_auto);
}

TEST(FlowCache, PostSubstitutionKnobChangeReusesEveryProof) {
  const auto dir = scratchDir("dlx_margin");
  const designs::CpuConfig config = designs::dlxConfig();

  (void)runCpuFlow(config, cpuOptions(dir.string()));
  core::DesyncOptions changed = cpuOptions(dir.string());
  changed.control.margin = 1.25;
  const FlowOutput warm = runCpuFlow(config, changed);

  // The margin only sizes delay elements, which no miter reads: every
  // proof is reused.
  EXPECT_EQ(warm.result.flow.cacheStats().hits, 1u);
  expectEveryProofRestored(warm);

  // And the changed run matches a cold run at the same margin exactly.
  core::DesyncOptions reference = cpuOptions();
  reference.control.margin = 1.25;
  const FlowOutput plain = runCpuFlow(config, reference);
  EXPECT_EQ(warm.verilog, plain.verilog);
  EXPECT_EQ(warm.sdc, plain.sdc);
}

// --- corruption falls back to recomputing --------------------------------

TEST(FlowCache, CorruptEntriesFallBackToColdRunWithDiagnostics) {
  const auto dir = scratchDir("dlx_corrupt");
  const designs::CpuConfig config = designs::dlxConfig();

  const FlowOutput cold = runCpuFlow(config, cpuOptions(dir.string()));
  int corrupted = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() != ".tbl") continue;
    std::fstream f(e.path(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(100);
    f.put(static_cast<char>(0xab));
    ++corrupted;
  }
  ASSERT_EQ(corrupted, 1);

  const FlowOutput fallback = runCpuFlow(config, cpuOptions(dir.string()));
  EXPECT_EQ(fallback.verilog, cold.verilog);
  EXPECT_EQ(fallback.sdc, cold.sdc);
  EXPECT_EQ(fallback.result.flow.cacheStats().hits, 0u);
  EXPECT_EQ(fallback.result.flow.cacheStats().misses, 1u);
  EXPECT_FALSE(fallback.result.flow.eco().warm);
  EXPECT_FALSE(fallback.result.flow.notes().empty());

  // The fallback re-stored a valid table: the next run is warm again.
  const FlowOutput rewarm = runCpuFlow(config, cpuOptions(dir.string()));
  EXPECT_EQ(rewarm.result.flow.cacheStats().hits, 1u);
  EXPECT_EQ(rewarm.verilog, cold.verilog);
}

// --- failure reporting ----------------------------------------------------

TEST(FlowCache, PassFailureRaisesFlowErrorWithPartialReport) {
  nl::Design design;
  designs::buildCpu(design, gf(), designs::dlxConfig());
  nl::Module& m = *design.findModule("dlx");
  core::DesyncOptions opt;
  opt.control.reset_port = "no_such_port";
  try {
    core::desynchronize(design, m, gf(), opt);
    FAIL() << "expected FlowError";
  } catch (const core::FlowError& e) {
    EXPECT_EQ(e.pass(), "control_network");
    EXPECT_NE(std::string(e.what()).find("no_such_port"), std::string::npos);
    // The report covers every pass up to and including the failing one.
    ASSERT_EQ(e.flow().passes().size(), 6u);
    EXPECT_EQ(e.flow().passes().back().name, "control_network");
    EXPECT_NE(e.flow().find("region_timing"), nullptr);
  }
}

TEST(FlowCache, ErrorReportJsonCarriesFailureAndPartialFlow) {
  nl::Design design;
  designs::buildCpu(design, gf(), designs::dlxConfig());
  nl::Module& m = *design.findModule("dlx");
  core::DesyncOptions opt;
  opt.control.reset_port = "no_such_port";
  try {
    core::desynchronize(design, m, gf(), opt);
    FAIL() << "expected FlowError";
  } catch (const core::FlowError& e) {
    core::RunInfo info;
    info.input = "dlx.v";
    info.cells_in = 42;
    const std::string json =
        core::errorReport(info, e.what(), e.pass(), e.flow()).dump();
    // The partial report names the failure and still lists every pass that
    // ran, stamped with the identities that gate cache reuse.
    EXPECT_NE(json.find("\"error\""), std::string::npos);
    EXPECT_NE(json.find("no_such_port"), std::string::npos);
    EXPECT_NE(json.find("\"failed_pass\": \"control_network\""),
              std::string::npos);
    EXPECT_NE(json.find(core::kToolVersion), std::string::npos);
    EXPECT_NE(json.find("\"cache_format_version\": " +
                        std::to_string(flowdb::kCacheFormatVersion)),
              std::string::npos);
    EXPECT_NE(json.find("\"reference_sta\""), std::string::npos);
    EXPECT_NE(json.find("\"region_timing\""), std::string::npos);
  }
}

// --- named slots (the ECO region tables live in one per design) -----------

TEST(PassCache, StoreLoadRoundTripAndMissAccounting) {
  const auto dir = scratchDir("unit");
  flowdb::PassCache cache(dir.string());

  EXPECT_FALSE(cache.loadSlot("eco-unit.tbl", "DSYNCECO").has_value());
  EXPECT_TRUE(cache.storeSlot("eco-unit.tbl", "DSYNCECO", "payload-bytes"));
  const auto loaded = cache.loadSlot("eco-unit.tbl", "DSYNCECO");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, "payload-bytes");
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().bytes_written, 13u);
  EXPECT_EQ(cache.stats().bytes_read, 13u);

  // No temp files left behind by the atomic write.
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(e.path().filename().string(), "eco-unit.tbl");
  }
}

TEST(PassCache, ConcurrentInstancesOnOneDirectoryKeepEntriesDistinct) {
  const auto dir = scratchDir("concurrent");
  // Regression: temp names used to be unique only per PassCache instance
  // (".tmp.<pid>.<n>" with a per-instance counter), so concurrent
  // sessions on one directory collided on the same temp file and could
  // publish one writer's payload under another writer's slot.  Hammer the
  // directory from several instances at once and require every slot to
  // read back exactly its own payload.
  constexpr int kThreads = 4;
  constexpr int kSlotsPerThread = 64;
  const auto slotName = [](int t, int k) {
    return "eco-" + std::to_string(t) + "-" + std::to_string(k) + ".tbl";
  };
  const auto payloadOf = [](int t, int k) {
    return "payload-" + std::to_string(t) + "-" + std::to_string(k);
  };
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      flowdb::PassCache cache(dir.string());
      for (int k = 0; k < kSlotsPerThread; ++k) {
        ASSERT_TRUE(cache.storeSlot(slotName(t, k), "DSYNCECO",
                                    payloadOf(t, k)));
        const auto loaded = cache.loadSlot(slotName(t, k), "DSYNCECO");
        ASSERT_TRUE(loaded.has_value());
        ASSERT_EQ(*loaded, payloadOf(t, k));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  flowdb::PassCache reader(dir.string());
  for (int t = 0; t < kThreads; ++t) {
    for (int k = 0; k < kSlotsPerThread; ++k) {
      const auto loaded = reader.loadSlot(slotName(t, k), "DSYNCECO");
      ASSERT_TRUE(loaded.has_value());
      EXPECT_EQ(*loaded, payloadOf(t, k));
    }
  }
}

TEST(PassCache, NamedSlotRoundTripAndOverwrite) {
  const auto dir = scratchDir("slot_rt");
  flowdb::PassCache cache(dir.string());
  EXPECT_FALSE(cache.loadSlot("eco-dlx.tbl", "DSYNCECO").has_value());

  EXPECT_TRUE(cache.storeSlot("eco-dlx.tbl", "DSYNCECO", "tables-v1"));
  auto got = cache.loadSlot("eco-dlx.tbl", "DSYNCECO");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "tables-v1");

  // storeSlot overwrites atomically; the reread sees only the new bytes.
  EXPECT_TRUE(cache.storeSlot("eco-dlx.tbl", "DSYNCECO", "tables-v2"));
  got = cache.loadSlot("eco-dlx.tbl", "DSYNCECO");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "tables-v2");
}

TEST(PassCache, TruncatedNamedSlotIsDiagnosedAsCorruptionNotVersion) {
  const auto dir = scratchDir("slot_trunc");
  flowdb::PassCache cache(dir.string());
  ASSERT_TRUE(cache.storeSlot("eco-dlx.tbl", "DSYNCECO",
                              std::string(256, 'x')));
  std::filesystem::resize_file(dir / "eco-dlx.tbl", 20);

  std::string diag;
  EXPECT_FALSE(cache.loadSlot("eco-dlx.tbl", "DSYNCECO", &diag).has_value());
  EXPECT_NE(diag.find("truncated"), std::string::npos) << diag;
  EXPECT_EQ(cache.stats().invalid, 1u);
  EXPECT_EQ(cache.stats().version_rejected, 0u);
}

TEST(PassCache, FlippedNamedSlotByteIsRejectedAsCorruption) {
  const auto dir = scratchDir("slot_flip");
  flowdb::PassCache cache(dir.string());
  ASSERT_TRUE(cache.storeSlot("eco-dlx.tbl", "DSYNCECO",
                              std::string(256, 'x')));
  // One flipped byte in the payload, then one in the trailing checksum:
  // both must read as checksum mismatches, never as garbage tables.
  const std::filesystem::path slot = dir / "eco-dlx.tbl";
  const auto size =
      static_cast<std::streamoff>(std::filesystem::file_size(slot));
  for (const std::streamoff at : {size / 2, size - 1}) {
    ASSERT_TRUE(cache.storeSlot("eco-dlx.tbl", "DSYNCECO",
                                std::string(256, 'x')));
    {
      std::fstream f(slot, std::ios::in | std::ios::out | std::ios::binary);
      f.seekg(at);
      char byte = 0;
      f.read(&byte, 1);
      f.seekp(at);
      f.put(static_cast<char>(byte ^ 0x40));
    }
    std::string diag;
    EXPECT_FALSE(cache.loadSlot("eco-dlx.tbl", "DSYNCECO", &diag).has_value());
    EXPECT_NE(diag.find("checksum mismatch"), std::string::npos)
        << "offset " << at << ": " << diag;
  }
  EXPECT_EQ(cache.stats().invalid, 2u);
  EXPECT_EQ(cache.stats().version_rejected, 0u);
}

TEST(PassCache, ForeignMagicNamedSlotIsRejected) {
  const auto dir = scratchDir("slot_magic");
  flowdb::PassCache cache(dir.string());
  ASSERT_TRUE(cache.storeSlot("eco-dlx.tbl", "DSYNCSNP", "not eco tables"));

  std::string diag;
  EXPECT_FALSE(cache.loadSlot("eco-dlx.tbl", "DSYNCECO", &diag).has_value());
  EXPECT_NE(diag.find("magic"), std::string::npos) << diag;
  EXPECT_EQ(cache.stats().version_rejected, 0u);
}

TEST(PassCache, NamedSlotFromAnotherFormatVersionIsRejectedDistinctly) {
  const auto dir = scratchDir("slot_version");
  flowdb::PassCache cache(dir.string());

  // Hand-seal an intact envelope claiming the previous format version: a
  // cache directory revisited after an upgrade.  The reject must be
  // counted as version_rejected, not plain corruption.
  {
    const std::string sealed = flowdb::sealEnvelope(
        "DSYNCECO", flowdb::kCacheFormatVersion - 1, "old-format tables");
    std::ofstream f(dir / "eco-dlx.tbl", std::ios::binary);
    f.write(sealed.data(), static_cast<std::streamsize>(sealed.size()));
  }

  std::string diag;
  EXPECT_FALSE(cache.loadSlot("eco-dlx.tbl", "DSYNCECO", &diag).has_value());
  EXPECT_NE(diag.find("version"), std::string::npos) << diag;
  EXPECT_EQ(cache.stats().version_rejected, 1u);
  EXPECT_EQ(cache.stats().invalid, 1u);
}

// --- Verilog writer/reader round-trip stability ---------------------------

// The in-memory generated designs carry escaped bus-bit port names
// (`\\acc[0] `) and output-port aliases that the reader canonicalizes
// (sanitized identifiers, folded assigns).  The first write->read->write
// trip therefore canonicalizes; the canonical text must then be a strict
// fixpoint of the round trip: read it back, write it again, byte-identical.
namespace {

std::string roundTrip(const std::string& text, std::string_view top) {
  nl::Design d;
  nl::readVerilog(d, text, gf());
  return nl::writeVerilog(*d.findModule(top));
}

}  // namespace

TEST(VerilogRoundTrip, DesynchronizedDlxTopReachesFixpointAfterOneTrip) {
  nl::Design design;
  designs::buildCpu(design, gf(), designs::dlxConfig());
  nl::Module& m = *design.findModule("dlx");
  core::DesyncOptions opt;
  opt.control.reset_port = "rst_n";
  opt.control.reset_active_low = true;
  core::desynchronize(design, m, gf(), opt);

  // Round-trip the flattened top module: after desynchronization it still
  // instantiates the generated controller/delay helper modules, which the
  // reader keeps as opaque instance types.
  const std::string v1 = nl::writeVerilog(m);
  const std::string v2 = roundTrip(v1, "dlx");
  const std::string v3 = roundTrip(v2, "dlx");
  EXPECT_EQ(v2, v3);
  // The desynchronized top must survive the trip structurally: same
  // cell/net counts on re-read.
  nl::Design d2;
  nl::readVerilog(d2, v2, gf());
  EXPECT_EQ(d2.findModule("dlx")->numCells(), m.numCells());
}

TEST(VerilogRoundTrip, SynchronousCpuReachesFixpointAfterOneTrip) {
  nl::Design design;
  designs::buildCpu(design, gf(), designs::dlxConfig());
  const std::string v1 = nl::writeVerilog(*design.findModule("dlx"));
  const std::string v2 = roundTrip(v1, "dlx");
  const std::string v3 = roundTrip(v2, "dlx");
  EXPECT_EQ(v2, v3);
  const std::string v4 = roundTrip(v3, "dlx");
  EXPECT_EQ(v3, v4);
}
