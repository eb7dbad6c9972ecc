// FlowDB: snapshot round-trips, envelope validation, pass-cache
// correctness, checkpoint/resume and the determinism guarantee (restored
// state produces byte-identical Verilog/SDC output at any --jobs).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/desync.h"
#include "core/flow_cache.h"
#include "core/parallel.h"
#include "core/run_report.h"
#include "core/version.h"
#include "designs/cpu.h"
#include "designs/small.h"
#include "flowdb/cache.h"
#include "flowdb/io.h"
#include "flowdb/snapshot.h"
#include "liberty/stdlib90.h"
#include "netlist/verilog.h"

namespace core = desync::core;
namespace designs = desync::designs;
namespace flowdb = desync::flowdb;
namespace lib = desync::liberty;
namespace nl = desync::netlist;
namespace util = desync::util;

namespace {

const lib::Gatefile& gf() {
  static const lib::Library l = lib::makeStdLib90(lib::LibVariant::kHighSpeed);
  static const lib::Gatefile g(l);
  return g;
}

flowdb::SnapshotMeta meta() {
  flowdb::SnapshotMeta m;
  m.tool_version = std::string(core::kToolVersion);
  m.library = gf().library().name;
  m.library_fingerprint = gf().library().contentHash();
  return m;
}

/// Fresh per-test scratch directory under the gtest temp root.
std::filesystem::path scratchDir(const std::string& name) {
  std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("flowdb_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Desynchronized pipe2: a design with tombstoned net/cell slots (removed
/// flip-flops and merged nets), helper modules and a reset port — the
/// hardest small case for slot-exact snapshotting.
void buildDesyncPipe2(nl::Design& design, core::DesyncOptions opt = {}) {
  designs::buildPipe2(design, gf(), 8);
  nl::Module& m = *design.findModule("pipe2");
  opt.control.reset_port = "rst_n";
  opt.control.reset_active_low = true;
  core::desynchronize(design, m, gf(), opt);
}

std::string corruptMessage(const std::string& bytes) {
  nl::Design d;
  try {
    flowdb::restoreDesign(d, bytes);
  } catch (const flowdb::SnapshotError& e) {
    return e.what();
  }
  return {};
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

core::DesyncOptions cpuOptions(const std::string& cache_dir = {},
                               bool resume = false) {
  core::DesyncOptions opt;
  opt.control.reset_port = "rst_n";
  opt.control.reset_active_low = true;
  opt.flowdb.cache_dir = cache_dir;
  opt.flowdb.resume = resume;
  return opt;
}

std::string passSource(const core::FlowReport& flow, const char* pass) {
  const core::PassStat* stat = flow.find(pass);
  return stat == nullptr ? std::string("<missing>") : stat->source;
}

}  // namespace

// --- snapshot round-trip --------------------------------------------------

TEST(Snapshot, RoundTripIsByteIdenticalOnDesynchronizedDesign) {
  nl::Design design;
  buildDesyncPipe2(design);
  const std::string bytes = flowdb::serializeDesign(design, meta());

  // Restore into a completely fresh design (empty name table, no modules):
  // NameIds are re-interned, yet both the Verilog text and the
  // re-serialized snapshot must be byte-identical.
  nl::Design restored;
  const flowdb::SnapshotMeta m = flowdb::restoreDesign(restored, bytes);
  EXPECT_EQ(m.tool_version, core::kToolVersion);
  EXPECT_EQ(m.library_fingerprint, gf().library().contentHash());
  EXPECT_EQ(nl::writeVerilog(restored), nl::writeVerilog(design));
  EXPECT_EQ(flowdb::serializeDesign(restored, meta()), bytes);
}

TEST(Snapshot, RestoreReplacesExistingModuleInPlace) {
  nl::Design design;
  buildDesyncPipe2(design);
  const std::string bytes = flowdb::serializeDesign(design, meta());
  const std::string reference = nl::writeVerilog(design);

  // A design already holding a (different) pipe2 gets overwritten
  // slot-exactly, and the Module object's identity is preserved.
  nl::Design other;
  designs::buildPipe2(other, gf(), 8);
  nl::Module* before = other.findModule("pipe2");
  flowdb::restoreDesign(other, bytes);
  EXPECT_EQ(other.findModule("pipe2"), before);
  EXPECT_EQ(nl::writeVerilog(other), reference);
}

TEST(Snapshot, PeekMetaReadsProvenanceWithoutMutation) {
  nl::Design design;
  designs::buildCounter(design, gf(), 4);
  const std::string bytes = flowdb::serializeDesign(design, meta());
  const flowdb::SnapshotMeta m = flowdb::peekSnapshotMeta(bytes);
  EXPECT_EQ(m.library, gf().library().name);
  EXPECT_EQ(m.tool_version, core::kToolVersion);
}

// --- envelope validation --------------------------------------------------

TEST(Snapshot, TruncatedFileIsRejectedWithDiagnostic) {
  nl::Design design;
  designs::buildCounter(design, gf(), 4);
  const std::string bytes = flowdb::serializeDesign(design, meta());

  // Any truncation point — inside the header, the payload or the trailing
  // checksum — must produce a "truncated" diagnostic, never garbage.
  for (std::size_t keep : {std::size_t{0}, std::size_t{7}, std::size_t{15},
                           bytes.size() / 2, bytes.size() - 1}) {
    const std::string msg = corruptMessage(bytes.substr(0, keep));
    EXPECT_NE(msg.find("truncated"), std::string::npos)
        << "keep=" << keep << " msg=" << msg;
  }
}

TEST(Snapshot, FlippedByteIsRejectedAsCorruption) {
  nl::Design design;
  designs::buildCounter(design, gf(), 4);
  std::string bytes = flowdb::serializeDesign(design, meta());
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  const std::string msg = corruptMessage(bytes);
  EXPECT_NE(msg.find("checksum mismatch"), std::string::npos) << msg;
}

TEST(Snapshot, FlippedChecksumByteIsRejectedAsCorruption) {
  nl::Design design;
  designs::buildCounter(design, gf(), 4);
  std::string bytes = flowdb::serializeDesign(design, meta());
  bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
  const std::string msg = corruptMessage(bytes);
  EXPECT_NE(msg.find("checksum mismatch"), std::string::npos) << msg;
}

TEST(Snapshot, WrongFormatVersionIsRejectedWithDiagnostic) {
  nl::Design design;
  designs::buildCounter(design, gf(), 4);
  std::string bytes = flowdb::serializeDesign(design, meta());
  // The version word sits right after the 8-byte magic (little-endian).
  bytes[flowdb::kMagicSize] = static_cast<char>(99);
  const std::string msg = corruptMessage(bytes);
  EXPECT_NE(msg.find("unsupported format version 99"), std::string::npos)
      << msg;
}

TEST(Snapshot, ForeignMagicIsRejectedWithDiagnostic) {
  nl::Design design;
  designs::buildCounter(design, gf(), 4);
  std::string bytes = flowdb::serializeDesign(design, meta());
  bytes.replace(0, flowdb::kMagicSize, "NOTASNAP");
  const std::string msg = corruptMessage(bytes);
  EXPECT_NE(msg.find("bad magic"), std::string::npos) << msg;
}

// --- result codec ---------------------------------------------------------

TEST(FlowCache, ResultCodecRoundTripsEveryField) {
  nl::Design design;
  designs::buildPipe2(design, gf(), 8);
  nl::Module& m = *design.findModule("pipe2");
  core::DesyncOptions opt;
  opt.control.reset_port = "rst_n";
  opt.control.reset_active_low = true;
  core::DesyncResult result = core::desynchronize(design, m, gf(), opt);

  core::DesyncResult decoded;
  core::decodeResult(core::encodeResult(result), decoded);
  EXPECT_EQ(decoded.regions.n_groups, result.regions.n_groups);
  EXPECT_EQ(decoded.regions.group_of_cell, result.regions.group_of_cell);
  EXPECT_EQ(decoded.ddg.preds, result.ddg.preds);
  EXPECT_EQ(decoded.ddg.succs, result.ddg.succs);
  EXPECT_EQ(decoded.substitution.ffs_replaced,
            result.substitution.ffs_replaced);
  EXPECT_EQ(decoded.timing.per_level_delay_ns,
            result.timing.per_level_delay_ns);
  EXPECT_EQ(decoded.timing.required_delay_ns,
            result.timing.required_delay_ns);
  EXPECT_EQ(decoded.control.regions.size(), result.control.regions.size());
  EXPECT_EQ(decoded.control.size_only_cells, result.control.size_only_cells);
  EXPECT_EQ(decoded.sdc.toText(), result.sdc.toText());
  EXPECT_EQ(decoded.sync_min_period_ns, result.sync_min_period_ns);
  ASSERT_EQ(decoded.corner_periods.size(), result.corner_periods.size());
  for (std::size_t i = 0; i < decoded.corner_periods.size(); ++i) {
    EXPECT_EQ(decoded.corner_periods[i].corner,
              result.corner_periods[i].corner);
    EXPECT_EQ(decoded.corner_periods[i].min_period_ns,
              result.corner_periods[i].min_period_ns);
  }
}

// --- pass cache: warm == cold, byte for byte ------------------------------

TEST(FlowCache, WarmRunIsByteIdenticalToColdOnDlx) {
  const auto dir = scratchDir("dlx_warm");
  const designs::CpuConfig config = designs::dlxConfig();

  const FlowOutput plain = runCpuFlow(config, cpuOptions());
  const FlowOutput cold = runCpuFlow(config, cpuOptions(dir.string()));
  const FlowOutput warm = runCpuFlow(config, cpuOptions(dir.string()));

  // Caching must never alter output: cold-with-cache == no-cache, and the
  // warm (fully restored) run reproduces both byte-for-byte.
  EXPECT_EQ(cold.verilog, plain.verilog);
  EXPECT_EQ(cold.sdc, plain.sdc);
  EXPECT_EQ(warm.verilog, plain.verilog);
  EXPECT_EQ(warm.sdc, plain.sdc);

  const core::FlowCacheStats& cold_stats = cold.result.flow.cacheStats();
  EXPECT_TRUE(cold_stats.enabled);
  EXPECT_EQ(cold_stats.hits, 0u);
  EXPECT_EQ(cold_stats.misses, 7u);
  EXPECT_GT(cold_stats.bytes_written, 0u);

  const core::FlowCacheStats& warm_stats = warm.result.flow.cacheStats();
  EXPECT_EQ(warm_stats.hits, 7u);
  EXPECT_EQ(warm_stats.misses, 0u);
  EXPECT_GT(warm_stats.bytes_read, 0u);
  EXPECT_EQ(warm_stats.bytes_written, 0u);
  for (const core::PassStat& p : warm.result.flow.passes()) {
    EXPECT_EQ(p.source, "cache") << p.name;
  }
}

TEST(FlowCache, WarmRunIsByteIdenticalToColdOnArmClass) {
  const auto dir = scratchDir("arm_warm");
  const designs::CpuConfig config = designs::armClassConfig();

  const FlowOutput cold = runCpuFlow(config, cpuOptions(dir.string()));
  const FlowOutput warm = runCpuFlow(config, cpuOptions(dir.string()));
  EXPECT_EQ(warm.verilog, cold.verilog);
  EXPECT_EQ(warm.sdc, cold.sdc);
  EXPECT_EQ(warm.result.flow.cacheStats().hits, 7u);
}

TEST(FlowCache, RestoredStateIsIdenticalAcrossJobsSettings) {
  const auto dir = scratchDir("dlx_jobs");
  const designs::CpuConfig config = designs::dlxConfig();

  // Cold at --jobs 1, warm at --jobs 8, warm again at auto: --jobs is not
  // part of any cache key and must not change a single output byte.
  core::setThreadJobs(1);
  const FlowOutput cold = runCpuFlow(config, cpuOptions(dir.string()));
  core::setThreadJobs(8);
  const FlowOutput warm8 = runCpuFlow(config, cpuOptions(dir.string()));
  core::setThreadJobs(0);
  const FlowOutput warm_auto = runCpuFlow(config, cpuOptions(dir.string()));

  EXPECT_EQ(warm8.result.flow.cacheStats().hits, 7u);
  EXPECT_EQ(warm_auto.result.flow.cacheStats().hits, 7u);
  EXPECT_EQ(warm8.verilog, cold.verilog);
  EXPECT_EQ(warm_auto.verilog, cold.verilog);
  EXPECT_EQ(warm8.sdc, cold.sdc);
  EXPECT_EQ(warm_auto.sdc, cold.sdc);
}

TEST(FlowCache, PostSubstitutionKnobChangeReusesTimingPass) {
  const auto dir = scratchDir("dlx_margin");
  const designs::CpuConfig config = designs::dlxConfig();

  (void)runCpuFlow(config, cpuOptions(dir.string()));
  core::DesyncOptions changed = cpuOptions(dir.string());
  changed.control.margin = 1.25;
  const FlowOutput warm = runCpuFlow(config, changed);

  // The STA-heavy passes restore from cache; only the cheap construction
  // and SDC generation recompute under the new margin.
  EXPECT_EQ(passSource(warm.result.flow, "reference_sta"), "cache");
  EXPECT_EQ(passSource(warm.result.flow, "region_timing"), "cache");
  EXPECT_EQ(passSource(warm.result.flow, "control_network"), "computed");
  EXPECT_EQ(passSource(warm.result.flow, "sdc_generation"), "computed");

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
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() != ".entry") continue;
    std::fstream f(e.path(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(100);
    f.put(static_cast<char>(0xab));
  }

  const FlowOutput fallback = runCpuFlow(config, cpuOptions(dir.string()));
  EXPECT_EQ(fallback.verilog, cold.verilog);
  EXPECT_EQ(fallback.sdc, cold.sdc);
  EXPECT_EQ(fallback.result.flow.cacheStats().hits, 0u);
  EXPECT_EQ(fallback.result.flow.cacheStats().misses, 7u);
  EXPECT_FALSE(fallback.result.flow.notes().empty());
  for (const core::PassStat& p : fallback.result.flow.passes()) {
    EXPECT_EQ(p.source, "computed") << p.name;
  }

  // The fallback re-stored valid entries: the next run is warm again.
  const FlowOutput rewarm = runCpuFlow(config, cpuOptions(dir.string()));
  EXPECT_EQ(rewarm.result.flow.cacheStats().hits, 7u);
  EXPECT_EQ(rewarm.verilog, cold.verilog);
}

// --- failure reporting and checkpoint/resume ------------------------------

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
    // ran, stamped with the same identities that enter cache keys.
    EXPECT_NE(json.find("\"error\""), std::string::npos);
    EXPECT_NE(json.find("no_such_port"), std::string::npos);
    EXPECT_NE(json.find("\"failed_pass\": \"control_network\""),
              std::string::npos);
    EXPECT_NE(json.find(core::kToolVersion), std::string::npos);
    EXPECT_NE(json.find("\"snapshot_format_version\""), std::string::npos);
    EXPECT_NE(json.find("\"reference_sta\""), std::string::npos);
    EXPECT_NE(json.find("\"region_timing\""), std::string::npos);
  }
}

TEST(FlowCache, ResumeRestartsFromLastValidCheckpoint) {
  const auto dir = scratchDir("dlx_resume");
  const designs::CpuConfig config = designs::dlxConfig();

  // First run fails in control_network; the checkpoint then holds the
  // region_timing state (the last completed pass).
  core::DesyncOptions broken = cpuOptions(dir.string());
  broken.control.reset_port = "no_such_port";
  broken.control.reset_active_low = false;
  EXPECT_THROW(runCpuFlow(config, broken), core::FlowError);

  // Wipe the per-pass entries, keeping only the checkpoint slot: --resume
  // must restore from it even when the cache proper cannot answer.
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".entry") std::filesystem::remove(e.path());
  }

  const FlowOutput resumed =
      runCpuFlow(config, cpuOptions(dir.string(), /*resume=*/true));
  EXPECT_EQ(passSource(resumed.result.flow, "region_timing"), "checkpoint");
  EXPECT_EQ(passSource(resumed.result.flow, "control_network"), "computed");

  const FlowOutput plain = runCpuFlow(config, cpuOptions());
  EXPECT_EQ(resumed.verilog, plain.verilog);
  EXPECT_EQ(resumed.sdc, plain.sdc);
}

TEST(FlowCache, ResumeWithoutCheckpointNotesAndRunsCold) {
  const auto dir = scratchDir("dlx_resume_empty");
  const FlowOutput out =
      runCpuFlow(designs::dlxConfig(), cpuOptions(dir.string(), true));
  EXPECT_EQ(out.result.flow.cacheStats().misses, 7u);
  bool noted = false;
  for (const std::string& n : out.result.flow.notes()) {
    if (n.find("no valid checkpoint") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted);
}

// --- PassCache unit behaviour --------------------------------------------

TEST(PassCache, StoreLoadRoundTripAndMissAccounting) {
  const auto dir = scratchDir("unit");
  flowdb::PassCache cache(dir.string());
  const util::CacheKey key{0x0123456789abcdefULL, 0xfedcba9876543210ULL};

  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_TRUE(cache.store(key, "payload-bytes"));
  const auto loaded = cache.load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, "payload-bytes");
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().bytes_written, 13u);
  EXPECT_EQ(cache.stats().bytes_read, 13u);

  // No temp files left behind by the atomic writes.
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    EXPECT_NE(e.path().filename().string().find(key.hex()),
              std::string::npos);
  }
}

TEST(PassCache, ForeignPayloadUnderTheWrongNameIsRejected) {
  const auto dir = scratchDir("keybind");
  flowdb::PassCache cache(dir.string());
  const util::CacheKey key_a{1, 2};
  const util::CacheKey key_b{3, 4};
  ASSERT_TRUE(cache.store(key_a, "payload-for-a"));

  // A validly-sealed entry sitting under another key's file name — what a
  // copied file or a temp-file write confusion between concurrent
  // sessions would produce.  The envelope checksum passes, so only the
  // embedded key can catch it: the load must miss, not restore A's
  // payload into B's flow.
  std::filesystem::copy_file(dir / (key_a.hex() + ".entry"),
                             dir / (key_b.hex() + ".entry"));
  std::string diag;
  EXPECT_FALSE(cache.load(key_b, &diag).has_value());
  EXPECT_NE(diag.find("key mismatch"), std::string::npos) << diag;
  EXPECT_NE(diag.find(key_a.hex()), std::string::npos) << diag;
  EXPECT_EQ(cache.stats().invalid, 1u);

  // The honest entry is unaffected.
  const auto loaded = cache.load(key_a);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, "payload-for-a");
}

TEST(PassCache, ConcurrentInstancesOnOneDirectoryKeepEntriesDistinct) {
  const auto dir = scratchDir("concurrent");
  // Regression: temp names used to be unique only per PassCache instance
  // (".tmp.<pid>.<n>" with a per-instance counter), so concurrent
  // sessions on one directory collided on the same temp file and could
  // publish one writer's payload under another writer's key.  Hammer the
  // directory from several instances at once and require every key to
  // read back exactly its own payload.
  constexpr int kThreads = 4;
  constexpr int kKeysPerThread = 64;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&dir, t] {
      flowdb::PassCache cache(dir.string());
      for (int k = 0; k < kKeysPerThread; ++k) {
        const util::CacheKey key{static_cast<std::uint64_t>(t),
                                   static_cast<std::uint64_t>(k)};
        const std::string payload =
            "payload-" + std::to_string(t) + "-" + std::to_string(k);
        ASSERT_TRUE(cache.store(key, payload));
        const auto loaded = cache.load(key);
        ASSERT_TRUE(loaded.has_value());
        ASSERT_EQ(*loaded, payload);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  flowdb::PassCache reader(dir.string());
  for (int t = 0; t < kThreads; ++t) {
    for (int k = 0; k < kKeysPerThread; ++k) {
      const util::CacheKey key{static_cast<std::uint64_t>(t),
                                 static_cast<std::uint64_t>(k)};
      const auto loaded = reader.load(key);
      ASSERT_TRUE(loaded.has_value());
      EXPECT_EQ(*loaded,
                "payload-" + std::to_string(t) + "-" + std::to_string(k));
    }
  }
}

TEST(PassCache, CheckpointSlotRoundTrip) {
  const auto dir = scratchDir("ckpt");
  flowdb::PassCache cache(dir.string());
  EXPECT_FALSE(cache.loadCheckpoint().has_value());

  const util::CacheKey key{42, 1337};
  EXPECT_TRUE(cache.storeCheckpoint(4, "region_timing", key, "entry-bytes"));
  const auto ck = cache.loadCheckpoint();
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->pass_index, 4u);
  EXPECT_EQ(ck->pass_name, "region_timing");
  EXPECT_EQ(ck->key, key);
  EXPECT_EQ(ck->entry, "entry-bytes");
}

// --- named slots (the ECO region tables live in one per design) -----------

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

  // Hand-seal an intact envelope claiming format version 2: a cache
  // directory revisited by an older build.  The reject must be counted as
  // version_rejected, not plain corruption.
  {
    const std::string sealed =
        flowdb::sealEnvelope("DSYNCECO", 2, "old-format tables");
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
