// Deterministic gate on the heap traffic of the Verilog reader and writer,
// of a module snapshot and of a design's teardown, of inserting (and
// flattening) the DLX control network and of dumping a daemon-sized JSON
// reply.  Its own binary because
// it replaces the global operator new and delete with counting ones.  It
// reads no clock: allocation counts are the same on any machine, however
// loaded.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>

#include "core/control_network.h"
#include "core/ff_substitution.h"
#include "core/regions.h"
#include "designs/cpu.h"
#include "liberty/gatefile.h"
#include "liberty/stdlib90.h"
#include "netlist/flatten.h"
#include "netlist/verilog.h"
#include "util/json.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_frees{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept {
  if (p != nullptr) g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  if (p != nullptr) g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

namespace {

namespace nl = desync::netlist;
namespace lib = desync::liberty;
namespace designs = desync::designs;
namespace core = desync::core;
namespace util = desync::util;

const lib::Gatefile& gf() {
  static const lib::Library l = lib::makeStdLib90(lib::LibVariant::kHighSpeed);
  static const lib::Gatefile g(l);
  return g;
}

/// The DLX case study as structural Verilog text.
const std::string& dlxText() {
  static const std::string text = [] {
    nl::Design d;
    designs::buildCpu(d, gf(), designs::dlxConfig());
    return nl::writeVerilog(d);
  }();
  return text;
}

/// The ARM-class case study as structural Verilog text.
const std::string& armText() {
  static const std::string text = [] {
    nl::Design d;
    designs::buildCpu(d, gf(), designs::armClassConfig());
    return nl::writeVerilog(d);
  }();
  return text;
}

template <typename F>
std::size_t allocationsOf(F&& f) {
  const std::size_t before = g_allocations.load();
  f();
  return g_allocations.load() - before;
}

TEST(NetlistIoAlloc, ReaderAllocatesAtMostHalfPerCell) {
  // Pins and sinks live in module-wide pools, so nothing is allocated per
  // cell or per net: every array, pool and name table grows geometrically.
  // The reader with a std::string per token and std::map bus tables made
  // 20.1 allocations per cell here; with a pin vector per cell and a sink
  // vector per net it made 2.7; with the by-name indices growing from
  // empty and a capacity hint per ';' it made 270 for the whole read.
  // Sized from the module's own counts, no index grows: 247, plus 5 %.
  constexpr std::size_t kMaxAllocations = 259;
  const std::string& text = dlxText();
  nl::Design d;
  const std::size_t n = allocationsOf([&] { nl::readVerilog(d, text, gf()); });
  const std::size_t cells = d.top().numCells();
  ASSERT_GT(cells, 10000u);
  EXPECT_LE(2 * n, cells) << n << " allocations for " << cells << " cells";
  EXPECT_LE(n, kMaxAllocations);
}

TEST(NetlistIoAlloc, ReaderProbesTheNameTableAtMostThreeTimesPerCell) {
  // The reader resolves a net reference through its own table of the
  // texts it met, and a declared bus bit through the bus's record, so the
  // design's NameTable is asked about once per new name (a net, an
  // instance).  Interning every identifier, and each bus bit as "base[i]"
  // plus its base, made 5.9 probes per cell on the DLX and 5.8 on the
  // ARM-class design.
  for (const std::string* text : {&dlxText(), &armText()}) {
    nl::Design d;
    const nl::VerilogReadStats stats = nl::readVerilog(d, *text, gf());
    const std::size_t cells = d.top().numCells();
    ASSERT_GT(cells, 10000u);
    EXPECT_LE(stats.name_probes, 3 * cells)
        << stats.name_probes << " name probes for " << cells << " cells";
    // One probe of the reader's own table per net reference, declared
    // name and instance type, at most.
    EXPECT_LE(stats.symbol_probes, 8 * cells) << stats.symbol_probes;
  }
}

TEST(NetlistIoAlloc, SnapshotAndTeardownCostAConstantNumberOfBlocks) {
  // A snapshot copies the module's flat arrays and name indices (one
  // allocation each); a teardown frees them plus the name table's arena
  // blocks (one per 64 KiB of names).  With a heap list per cell and per
  // net, a DLX snapshot made about 20,000 allocations.
  constexpr std::size_t kMaxBlocks = 64;
  std::optional<nl::Design> d;
  d.emplace();
  nl::readVerilog(*d, dlxText(), gf());
  ASSERT_GT(d->top().numCells(), 10000u);
  {
    nl::Design snap;
    const std::size_t n =
        allocationsOf([&] { nl::snapshotModule(snap, d->top()); });
    EXPECT_LE(n, kMaxBlocks);
    EXPECT_EQ(snap.top().numCells(), d->top().numCells());
    // The snapshot's sink pool is dense: one slot per live sink, where the
    // read's pool also keeps the old slots of every segment that grew.
    std::size_t live_sinks = 0;
    snap.top().forEachNet(
        [&](nl::NetId id) { live_sinks += snap.top().sinks(id).size(); });
    EXPECT_EQ(snap.top().sinkPoolSize(), live_sinks);
    EXPECT_LT(snap.top().sinkPoolSize(), d->top().sinkPoolSize());
    EXPECT_TRUE(snap.top().checkInvariants().empty());
  }
  const std::size_t before = g_frees.load();
  d.reset();
  const std::size_t frees = g_frees.load() - before;
  EXPECT_LE(frees, kMaxBlocks);
}

TEST(NetlistIoAlloc, WriterAllocatesNoMoreThanTheStreamWriter) {
  // The ostringstream writer, which built a std::string per pin reference
  // and looked buses up in a std::map<std::string, ...>, made 2146
  // allocations writing this design.
  constexpr std::size_t kStreamWriterAllocations = 2146;
  nl::Design d;
  nl::readVerilog(d, dlxText(), gf());
  std::string out;
  const std::size_t n = allocationsOf([&] { out = nl::writeVerilog(d); });
  EXPECT_FALSE(out.empty());
  EXPECT_LE(n, kStreamWriterAllocations);
}

TEST(NetlistIoAlloc, ControlNetworkAllocatesLittlePerInsertedCell) {
  // The DLX through the flow's passes up to the control network, whose
  // insertion builds the controller, C-element and delay-element modules,
  // instantiates them and flattens the instances into the top.  With a
  // std::string per pin and instance name and a hash map per flattened
  // instance, this made 10.8 allocations per inserted cell (6929 for 644);
  // building and flattening over interned names made 2.39 (1540); with the
  // controller, C-element and delay-element modules built over interned
  // names too (the delay element sized up front), it makes 1.18 (762),
  // bounded with 5 % headroom.
  constexpr double kMaxPerCell = 1.24;
  nl::Design d;
  nl::Module& m = designs::buildCpu(d, gf(), designs::dlxConfig());
  core::Regions regions = core::groupRegions(m, gf(), {});
  const core::SubstitutionResult subst =
      core::substituteFlipFlops(m, gf(), regions);
  const core::DependencyGraph ddg =
      core::buildDependencyGraph(m, gf(), regions);
  const core::RegionTiming timing =
      core::computeRegionTiming(m, gf(), regions);
  const std::size_t before = m.numCells();
  const std::size_t n = allocationsOf([&] {
    (void)core::insertControlNetwork(d, m, gf(), regions, ddg, subst, timing,
                                     {});
  });
  const std::size_t inserted = m.numCells() - before;
  ASSERT_GT(inserted, 500u);
  EXPECT_LE(static_cast<double>(n), kMaxPerCell * inserted)
      << n << " allocations for " << inserted << " inserted cells";
}

TEST(NetlistIoAlloc, DelayStageIsCharacterizedOncePerLibrary) {
  // The AND-stage delay is measured on a scratch 16-level delay element
  // through a whole Sta (hundreds of allocations).  After the first call
  // per library content it is a table lookup: no allocation, and the
  // same bits, also for another Library object with the same content.
  const double first = core::delayStageNs(gf());
  EXPECT_GT(first, 0.0);
  double again = 0.0;
  EXPECT_EQ(allocationsOf([&] { again = core::delayStageNs(gf()); }), 0u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(again),
            std::bit_cast<std::uint64_t>(first));
  const lib::Library twin = lib::makeStdLib90(lib::LibVariant::kHighSpeed);
  const lib::Gatefile twin_gf(twin);
  EXPECT_EQ(allocationsOf([&] { again = core::delayStageNs(twin_gf); }), 0u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(again),
            std::bit_cast<std::uint64_t>(first));
  const lib::Library ll = lib::makeStdLib90(lib::LibVariant::kLowLeakage);
  EXPECT_NE(core::delayStageNs(lib::Gatefile(ll)), first);
}

TEST(NetlistIoAlloc, JsonDumpOfALargeReplyOnlyGrowsTheOutput) {
  // A reply shaped like a drdesyncd one around a 20 kB Verilog string.
  // Escaping appends straight into the output, which grows by each
  // string's length up front: 4 allocations here.  Escaping each string
  // into a temporary first, then appending that, made 8.
  constexpr std::size_t kMaxAllocations = 5;
  std::string verilog;
  for (int i = 0; verilog.size() < 20000; ++i) {
    verilog += "  ND2 g" + std::to_string(i) + " (.A(n" + std::to_string(i) +
               "), .B(\\bus[3] ), .Z(z" + std::to_string(i) + "));\n";
  }
  util::Json reply = util::Json::object();
  reply.set("id", util::Json::number(7));
  reply.set("ok", util::Json::boolean(true));
  reply.set("verilog", util::Json::str(verilog));
  reply.set("sdc", util::Json::str("create_clock -name clk_m -period 3.2\n"));
  reply.set("service_ms", util::Json::number(0.25));
  std::string out;
  const std::size_t n = allocationsOf([&] { out = reply.dump(); });
  EXPECT_GT(out.size(), verilog.size());
  EXPECT_LE(n, kMaxAllocations) << n << " allocations";
}

TEST(NetlistIoAlloc, WriteReadWriteIsAFixpoint) {
  // Reading simplifies escaped names, so the first rewrite may differ from
  // the generated text; from then on write(read(text)) == text.
  nl::Design first;
  nl::readVerilog(first, dlxText(), gf());
  const std::string once = nl::writeVerilog(first);
  nl::Design second;
  nl::readVerilog(second, once, gf());
  EXPECT_EQ(nl::writeVerilog(second), once);
  EXPECT_EQ(second.top().numCells(), first.top().numCells());
}

}  // namespace
