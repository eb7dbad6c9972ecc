// Randomized round-trip property tests: random gate-level circuits survive
// Verilog write/read cycles structurally intact, and cleaning preserves
// simulation behaviour.
//
// The random source and circuit generator are the fuzzing subsystem's
// shared ones (src/fuzz): a seed printed by any harness reproduces the
// identical circuit here.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/generator.h"
#include "liberty/gatefile.h"
#include "liberty/stdlib90.h"
#include "netlist/cleaning.h"
#include "netlist/verilog.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace nl = desync::netlist;
namespace lib = desync::liberty;
namespace sim = desync::sim;
namespace fuzz = desync::fuzz;
namespace util = desync::util;

using sim::Val;

namespace {

const lib::Gatefile& gf() {
  static const lib::Library l = lib::makeStdLib90(lib::LibVariant::kHighSpeed);
  static const lib::Gatefile g(l);
  return g;
}

constexpr fuzz::CombConfig kConfig{/*n_inputs=*/5, /*n_gates=*/60,
                                   /*n_outputs=*/4};

/// Evaluates the circuit's outputs for one input vector.
std::string outputs(const nl::Module& m, const lib::Gatefile& g,
                    std::uint32_t vector, int n_inputs) {
  sim::Simulator s(m, g);
  for (int i = 0; i < n_inputs; ++i) {
    s.setInput("in" + std::to_string(i),
               sim::fromBool(((vector >> i) & 1u) != 0));
  }
  s.runUntilStable(s.now() + sim::nsToPs(1000));
  std::string out;
  for (int i = 0; i < kConfig.n_outputs; ++i) {
    out.push_back(sim::toChar(s.value("out" + std::to_string(i))));
  }
  return out;
}

class Fuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Fuzz, VerilogRoundTripPreservesStructureAndBehaviour) {
  util::Rng rnd{GetParam()};
  nl::Design d1;
  fuzz::buildRandomComb(d1, gf(), rnd, kConfig);
  EXPECT_TRUE(d1.top().checkInvariants().empty());

  std::string text = nl::writeVerilog(d1);
  nl::Design d2;
  nl::readVerilog(d2, text, gf());
  EXPECT_EQ(d2.top().numCells(), d1.top().numCells());
  EXPECT_EQ(d2.top().numPorts(), d1.top().numPorts());
  EXPECT_TRUE(d2.top().checkInvariants().empty());

  // Behavioural equivalence on a handful of vectors.
  util::Rng vec{GetParam() ^ 0xabcdef};
  for (int t = 0; t < 6; ++t) {
    std::uint32_t v = static_cast<std::uint32_t>(vec());
    EXPECT_EQ(outputs(d1.top(), gf(), v, kConfig.n_inputs),
              outputs(d2.top(), gf(), v, kConfig.n_inputs))
        << "vector " << v;
  }
}

TEST_P(Fuzz, CleaningPreservesBehaviour) {
  util::Rng rnd{GetParam() + 17};
  nl::Design d1;
  fuzz::buildRandomComb(d1, gf(), rnd, kConfig);
  // Reference responses before cleaning.
  std::vector<std::string> before;
  util::Rng vec{GetParam() ^ 0x5a5a};
  std::vector<std::uint32_t> vectors;
  for (int t = 0; t < 6; ++t) {
    vectors.push_back(static_cast<std::uint32_t>(vec()));
  }
  for (std::uint32_t v : vectors) {
    before.push_back(outputs(d1.top(), gf(), v, kConfig.n_inputs));
  }

  nl::CleaningRules rules;
  rules.is_buffer = [](std::string_view t) { return gf().isBuffer(t); };
  rules.is_inverter = [](std::string_view t) { return gf().isInverter(t); };
  nl::CleaningStats stats = nl::cleanLogic(d1.top(), rules);
  EXPECT_TRUE(d1.top().checkInvariants().empty());

  for (std::size_t i = 0; i < vectors.size(); ++i) {
    EXPECT_EQ(outputs(d1.top(), gf(), vectors[i], kConfig.n_inputs),
              before[i])
        << "vector " << vectors[i] << " after removing "
        << stats.buffers_removed << " buffers / "
        << stats.inverter_pairs_removed << " inverter pairs";
  }
}

TEST(Rng, BelowIsUnbiasedOverSmallRanges) {
  // 9 does not divide 2^64, so naive modulo would skew low residues; the
  // rejection draw must keep every bucket within a few percent of uniform.
  util::Rng rnd{42};
  constexpr int kBuckets = 9;
  constexpr int kDraws = 90000;
  int count[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) {
    ++count[rnd.below(kBuckets)];
  }
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(count[b], kDraws / kBuckets, kDraws / kBuckets / 10)
        << "bucket " << b;
  }
}

TEST(Rng, RangeCoversBothEndsInclusive) {
  util::Rng rnd{7};
  bool lo = false, hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int v = rnd.range(3, 5);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 5);
    lo = lo || v == 3;
    hi = hi || v == 5;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88,
                                           99, 123));

}  // namespace
