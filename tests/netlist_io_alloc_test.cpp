// Deterministic gate on the heap traffic of the Verilog reader and writer,
// of a module snapshot and of a design's teardown.  Its own binary because
// it replaces the global operator new and delete with counting ones.  It
// reads no clock: allocation counts are the same on any machine, however
// loaded.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>

#include "designs/cpu.h"
#include "liberty/gatefile.h"
#include "liberty/stdlib90.h"
#include "netlist/flatten.h"
#include "netlist/verilog.h"

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
  // vector per net it made 2.7.
  const std::string& text = dlxText();
  nl::Design d;
  const std::size_t n = allocationsOf([&] { nl::readVerilog(d, text, gf()); });
  const std::size_t cells = d.top().numCells();
  ASSERT_GT(cells, 10000u);
  EXPECT_LE(2 * n, cells) << n << " allocations for " << cells << " cells";
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
