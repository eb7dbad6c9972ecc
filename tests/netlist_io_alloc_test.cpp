// Deterministic gate on the Verilog reader's and writer's heap traffic.
// Its own binary because it replaces the global operator new with a
// counting one.  It reads no clock: allocation counts are the same on any
// machine, however loaded.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "designs/cpu.h"
#include "liberty/gatefile.h"
#include "liberty/stdlib90.h"
#include "netlist/verilog.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

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

TEST(NetlistIoAlloc, ReaderAllocatesAtMostFivePerCell) {
  // Per cell the reader needs its pin vector and, amortized, the growth of
  // its nets' sink vectors; names, tokens and tables allocate in bulk.  The
  // reader with a std::string per token and std::map bus tables made 20.1
  // allocations per cell here (19.9 on the ARM-class design).
  const std::string& text = dlxText();
  nl::Design d;
  const std::size_t n = allocationsOf([&] { nl::readVerilog(d, text, gf()); });
  const std::size_t cells = d.top().numCells();
  ASSERT_GT(cells, 10000u);
  EXPECT_LE(n, 5 * cells) << n << " allocations for " << cells << " cells";
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
