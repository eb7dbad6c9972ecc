// Tests for the shared 3-valued table ops (sim/value.h) and the compiled
// 64-lane bit-parallel simulator (sim/bitsim):
//
//  * exhaustive truth-table semantics against a brute-force X-completion
//    reference, scalar and lane forms;
//  * cross-engine golden equality: the bit-parallel engine's capture
//    sequences must be byte-identical to the event-driven reference, on
//    the checked-in corpus, on generator seeds (at --jobs 1 and 4), on
//    hand-built designs covering every sequential cell family, and with
//    per-lane stuck-at forces;
//  * plan-compiler rejections (latches, combinational cycles) with silent
//    fallback in the golden-run helpers;
//  * concurrent evaluation of one shared plan (race-checked in the .tsan
//    variant of this suite).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "fuzz/generator.h"
#include "liberty/bound.h"
#include "liberty/gatefile.h"
#include "liberty/stdlib90.h"
#include "netlist/netlist.h"
#include "netlist/verilog.h"
#include "sim/bitsim/bitsim.h"
#include "sim/simulator.h"
#include "sim/stimulus.h"
#include "sim/value.h"
#include "util/hash.h"

namespace core = desync::core;
namespace fuzz = desync::fuzz;
namespace lib = desync::liberty;
namespace nl = desync::netlist;
namespace sim = desync::sim;
namespace bs = desync::sim::bitsim;
namespace util = desync::util;

using sim::LaneWord;
using sim::Val;

namespace {

#ifdef DESYNC_BITSIM_TEST_LIGHT
constexpr std::uint64_t kGeneratorSeeds = 24;
#else
constexpr std::uint64_t kGeneratorSeeds = 200;
#endif

const lib::Gatefile& gf() {
  static const lib::Library l = lib::makeStdLib90(lib::LibVariant::kHighSpeed);
  static const lib::Gatefile g(l);
  return g;
}

constexpr Val kVals[] = {Val::k0, Val::k1, Val::kX};

/// Brute-force reference for the completion semantics: the output is known
/// iff every 0/1 completion of the X inputs lands on the same table row
/// value.
Val refEval(std::uint64_t table, const std::vector<Val>& in) {
  bool can0 = false, can1 = false;
  const unsigned n = static_cast<unsigned>(in.size());
  for (unsigned row = 0; row < (1u << n); ++row) {
    bool compatible = true;
    for (unsigned i = 0; i < n; ++i) {
      const bool bit = ((row >> i) & 1u) != 0;
      if ((in[i] == Val::k1 && !bit) || (in[i] == Val::k0 && bit)) {
        compatible = false;
        break;
      }
    }
    if (!compatible) continue;
    if ((table >> row) & 1u) {
      can1 = true;
    } else {
      can0 = true;
    }
  }
  if (can0 && can1) return Val::kX;
  return can1 ? Val::k1 : Val::k0;
}

/// All 3^n input combinations, counted in base 3.
std::vector<std::vector<Val>> allCombos(unsigned n) {
  std::size_t total = 1;
  for (unsigned i = 0; i < n; ++i) total *= 3;
  std::vector<std::vector<Val>> combos;
  combos.reserve(total);
  for (std::size_t c = 0; c < total; ++c) {
    std::vector<Val> in(n);
    std::size_t rest = c;
    for (unsigned i = 0; i < n; ++i) {
      in[i] = kVals[rest % 3];
      rest /= 3;
    }
    combos.push_back(std::move(in));
  }
  return combos;
}

/// Checks scalar and lane evaluation of one table against the reference,
/// packing up to 64 combinations per lane pass.
void checkTable(std::uint64_t table, unsigned n,
                const std::vector<std::vector<Val>>& combos) {
  for (std::size_t c0 = 0; c0 < combos.size(); c0 += sim::kLanes) {
    const unsigned cnt = static_cast<unsigned>(
        std::min<std::size_t>(sim::kLanes, combos.size() - c0));
    LaneWord in[6];
    for (unsigned i = 0; i < n; ++i) in[i] = LaneWord{};
    for (unsigned j = 0; j < cnt; ++j) {
      for (unsigned i = 0; i < n; ++i) {
        in[i] = laneSet(in[i], j, combos[c0 + j][i]);
      }
    }
    const LaneWord out = laneEvalTable(table, in, n);
    EXPECT_EQ(out.val & ~out.known, 0u)
        << "canonical invariant broken, table " << table;
    for (unsigned j = 0; j < cnt; ++j) {
      const std::vector<Val>& combo = combos[c0 + j];
      const Val want = refEval(table, combo);
      EXPECT_EQ(sim::evalTable3(table, combo.data(), n), want)
          << "table " << table << " combo " << c0 + j;
      EXPECT_EQ(laneGet(out, j), want)
          << "table " << table << " lane " << j;
    }
  }
}

std::string digest(const std::vector<sim::CaptureLog>& logs) {
  std::string d;
  for (const sim::CaptureLog& log : logs) {
    d += log.element;
    d += '=';
    for (Val v : log.values) d += sim::toChar(v);
    d += '\n';
  }
  return d;
}

std::string batchDigest(const std::vector<std::vector<sim::CaptureLog>>& b) {
  std::string d;
  for (std::size_t i = 0; i < b.size(); ++i) {
    d += "batch " + std::to_string(i) + ":\n" + digest(b[i]);
  }
  return d;
}

std::vector<std::string> corpusFiles() {
  std::vector<std::string> files;
  for (const auto& e :
       std::filesystem::directory_iterator(DESYNC_CORPUS_DIR)) {
    if (e.path().extension() == ".v") files.push_back(e.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

// --- shared 3-valued ops (sim/value.h) ------------------------------------

TEST(ValueOps, ExhaustiveTablesUpTo3Inputs) {
  for (unsigned n = 0; n <= 3; ++n) {
    const std::vector<std::vector<Val>> combos = allCombos(n);
    const std::uint64_t n_tables = 1ull << (1u << n);
    for (std::uint64_t t = 0; t < n_tables; ++t) checkTable(t, n, combos);
  }
}

TEST(ValueOps, RandomWideTables) {
  for (unsigned n = 4; n <= 6; ++n) {
    const std::vector<std::vector<Val>> combos = allCombos(n);
    const std::uint64_t mask =
        (1u << n) == 64 ? ~std::uint64_t{0} : (1ull << (1u << n)) - 1;
#ifdef DESYNC_BITSIM_TEST_LIGHT
    const int n_tables = 8;
#else
    const int n_tables = 40;
#endif
    for (int t = 0; t < n_tables; ++t) {
      const std::uint64_t table =
          util::splitmix64(static_cast<std::uint64_t>(t) * 97 + n) & mask;
      checkTable(table, n, combos);
    }
  }
}

TEST(ValueOps, LaneHelpersMatchScalar) {
  for (Val a : kVals) {
    EXPECT_EQ(laneGet(laneBroadcast(a), 17), a);
    EXPECT_EQ(laneGet(laneInvert(laneBroadcast(a)), 3), sim::invert(a));
    for (bool low : {false, true}) {
      EXPECT_EQ(laneGet(laneActiveLevel(laneBroadcast(a), low), 60),
                sim::activeLevel(a, low));
    }
    for (Val b : kVals) {
      const LaneWord m = laneMerge(laneBroadcast(a), laneBroadcast(b));
      EXPECT_EQ(laneGet(m, 0), sim::merge3(a, b))
          << sim::toChar(a) << sim::toChar(b);
      EXPECT_EQ(laneGet(m, 63), sim::merge3(a, b));
    }
  }
  // laneSet touches only its lane.
  LaneWord w = laneBroadcast(Val::k1);
  w = laneSet(w, 5, Val::kX);
  w = laneSet(w, 9, Val::k0);
  EXPECT_EQ(laneGet(w, 5), Val::kX);
  EXPECT_EQ(laneGet(w, 9), Val::k0);
  EXPECT_EQ(laneGet(w, 4), Val::k1);
  EXPECT_EQ(laneGet(w, 63), Val::k1);
}

TEST(ValueOps, FeBatchDerivation) {
  sim::SyncStimulus base;
  base.cycles = 10;
  for (std::size_t b : {0u, 1u, 7u}) {
    EXPECT_EQ(sim::feBatchCycles(base, b), 10 + 2 * static_cast<int>(b));
  }
}

// --- cross-engine golden equality -----------------------------------------

TEST(BitSim, CorpusCapturesMatchEventEngine) {
  const std::vector<std::string> files = corpusFiles();
  ASSERT_FALSE(files.empty());
  for (const std::string& path : files) {
    nl::Design d;
    nl::readVerilog(d, readFile(path), gf());
    const lib::BoundModule bound(d.top(), gf());
    sim::SyncStimulus st;
    st.half_period_ns = 5.0;
    st.cycles = 20;

    sim::Simulator event_sim(bound);
    sim::runSyncStimulus(event_sim, st);

    const bs::BitPlan plan = bs::compilePlan(bound);
    bs::BitSim bit_sim(plan);
    sim::runSyncStimulus(bit_sim, st);

    EXPECT_EQ(digest(event_sim.captures()), digest(bit_sim.captures(0)))
        << path;
  }
}

TEST(BitSim, GeneratorSeedsMatchEventEngineAtAnyJobs) {
  struct SeedResult {
    std::string event_digest;
    std::string bitsim_digest;
    bool compiled = false;
  };
  auto runSeed = [](std::uint64_t seed) {
    const std::string text = fuzz::generateVerilog(gf(), seed);
    nl::Design d;
    nl::readVerilog(d, text, gf());
    const lib::BoundModule bound(d.top(), gf());
    sim::SyncStimulus st;
    st.half_period_ns = 10.0;
    st.cycles = 12 + static_cast<int>(seed % 5);

    SeedResult r;
    sim::Simulator event_sim(bound);
    sim::runSyncStimulus(event_sim, st);
    r.event_digest = digest(event_sim.captures());
    try {
      const bs::BitPlan plan = bs::compilePlan(bound);
      bs::BitSim bit_sim(plan);
      sim::runSyncStimulus(bit_sim, st);
      r.bitsim_digest = digest(bit_sim.captures(0));
      r.compiled = true;
    } catch (const bs::BitSimError& e) {
      r.bitsim_digest = std::string("bitsim error: ") + e.what();
    }
    return r;
  };

  std::vector<std::vector<SeedResult>> by_jobs;
  for (int jobs : {1, 4}) {
    core::setThreadJobs(jobs);
    by_jobs.push_back(core::parallelMap(
        kGeneratorSeeds, [&](std::size_t i) { return runSeed(i + 1); }));
  }
  core::setThreadJobs(0);

  for (std::size_t i = 0; i < kGeneratorSeeds; ++i) {
    const SeedResult& r = by_jobs[0][i];
    // Every generated design is inside the cycle model (single root clock,
    // CGL gates, no latches, no combinational cycles).
    EXPECT_TRUE(r.compiled) << "seed " << i + 1 << ": " << r.bitsim_digest;
    EXPECT_EQ(r.event_digest, r.bitsim_digest) << "seed " << i + 1;
    EXPECT_EQ(by_jobs[1][i].event_digest, r.event_digest)
        << "seed " << i + 1 << " event digest depends on --jobs";
    EXPECT_EQ(by_jobs[1][i].bitsim_digest, r.bitsim_digest)
        << "seed " << i + 1 << " bitsim digest depends on --jobs";
  }
}

TEST(BitSim, GoldenBatchesIdenticalBetweenEngines) {
  // 70 batches exercise the 64-lane packing across two passes with a
  // partially filled second word.
  const std::string text = fuzz::generateVerilog(gf(), 11);
  nl::Design d;
  nl::readVerilog(d, text, gf());
  const lib::BoundModule bound(d.top(), gf());
  sim::SyncStimulus base;
  base.half_period_ns = 10.0;
  base.cycles = 8;

  // Reference: one event Simulator per batch driven by runSyncStimulus.
  std::vector<std::vector<sim::CaptureLog>> event_batches;
  for (std::size_t b = 0; b < 70; ++b) {
    sim::Simulator es(bound);
    sim::SyncStimulus st = base;
    st.cycles = sim::feBatchCycles(base, b);
    sim::runSyncStimulus(es, st);
    event_batches.push_back(es.captures());
  }
  const std::string event_digest = batchDigest(event_batches);
  EXPECT_EQ(event_digest,
            batchDigest(sim::goldenSyncBatches(bound, base, 70)));
  EXPECT_FALSE(event_digest.empty());
}

TEST(BitSim, AllSequentialCellFamiliesMatchEventEngine) {
  // Hand-built design covering DFFS (async preset), DFFSYNR (synchronous
  // clear), SDFF/SDFFR (scan muxes) and QN outputs, with the scan enable
  // driven from a port through known and X phases.
  nl::Design d;
  nl::Module& m = d.addModule("mixed");
  const auto in = nl::PortDir::kInput;
  const auto out = nl::PortDir::kOutput;
  const nl::NetId clk = m.addNet("clk");
  const nl::NetId rst_n = m.addNet("rst_n");
  const nl::NetId se = m.addNet("se");
  m.addPort("clk", in, clk);
  m.addPort("rst_n", in, rst_n);
  m.addPort("se", in, se);
  const nl::NetId q0 = m.addNet("q0");
  const nl::NetId qn0 = m.addNet("qn0");
  const nl::NetId q1 = m.addNet("q1");
  const nl::NetId q2 = m.addNet("q2");
  const nl::NetId q3 = m.addNet("q3");
  m.addCell("d0", "DFFS",
            {{"D", in, qn0},
             {"CP", in, clk},
             {"SDN", in, rst_n},
             {"Q", out, q0},
             {"QN", out, qn0}});
  m.addCell("d1", "DFFSYNR",
            {{"D", in, qn0}, {"RN", in, q0}, {"CP", in, clk}, {"Q", out, q1}});
  m.addCell("d2", "SDFF",
            {{"D", in, q1},
             {"SI", in, q0},
             {"SE", in, se},
             {"CP", in, clk},
             {"Q", out, q2}});
  m.addCell("d3", "SDFFR",
            {{"D", in, q2},
             {"SI", in, q1},
             {"SE", in, se},
             {"CDN", in, rst_n},
             {"CP", in, clk},
             {"Q", out, q3}});
  m.addPort("q", out, q3);
  ASSERT_TRUE(m.checkInvariants().empty());
  const lib::BoundModule bound(m, gf());

  const Val se_phases[] = {Val::k0, Val::k1, Val::kX, Val::k0};

  sim::Simulator es(bound);
  es.setInput("clk", Val::k0);
  es.setInput("rst_n", Val::k0);
  es.setInput("se", Val::k0);
  es.run(sim::nsToPs(10));
  es.setInput("rst_n", Val::k1);
  es.run(es.now() + sim::nsToPs(5));
  for (Val phase : se_phases) {
    es.setInput("se", phase);
    for (int c = 0; c < 4; ++c) {
      es.setInput("clk", Val::k1);
      es.run(es.now() + sim::nsToPs(5));
      es.setInput("clk", Val::k0);
      es.run(es.now() + sim::nsToPs(5));
    }
  }

  const bs::BitPlan plan = bs::compilePlan(bound);
  bs::BitSim ps(plan);
  ps.set("rst_n", Val::k0);
  ps.set("se", Val::k0);
  ps.settle();
  ps.set("rst_n", Val::k1);
  ps.settle();
  for (Val phase : se_phases) {
    ps.set("se", phase);
    for (int c = 0; c < 4; ++c) ps.cycle();
  }

  EXPECT_EQ(digest(es.captures()), digest(ps.captures(0)));
  EXPECT_FALSE(digest(ps.captures(0)).empty());
}

TEST(BitSim, PerLaneForcesMatchEventForces) {
  const std::string path = std::string(DESYNC_CORPUS_DIR) + "/fz_s12_pass.v";
  nl::Design d;
  nl::readVerilog(d, readFile(path), gf());
  const lib::BoundModule bound(d.top(), gf());
  sim::SyncStimulus st;
  st.half_period_ns = 5.0;
  st.cycles = 16;

  const bs::BitPlan plan = bs::compilePlan(bound);
  bs::BitSim bit_sim(plan);
  bit_sim.forceNet("EO_n1", 3, Val::k0);
  bit_sim.forceNet("EO_n1", 5, Val::k1);
  bit_sim.forceNet("MAJ3_n5", 7, Val::k1);
  sim::runSyncStimulus(bit_sim, st);

  auto eventWithForce = [&](const char* net, Val v) {
    sim::Simulator s(bound);
    if (net != nullptr) s.forceNet(net, v);
    sim::runSyncStimulus(s, st);
    return digest(s.captures());
  };
  EXPECT_EQ(digest(bit_sim.captures(0)), eventWithForce(nullptr, Val::kX));
  EXPECT_EQ(digest(bit_sim.captures(3)), eventWithForce("EO_n1", Val::k0));
  EXPECT_EQ(digest(bit_sim.captures(5)), eventWithForce("EO_n1", Val::k1));
  EXPECT_EQ(digest(bit_sim.captures(7)), eventWithForce("MAJ3_n5", Val::k1));
  EXPECT_EQ(digest(bit_sim.captures(9)), eventWithForce(nullptr, Val::kX));
  EXPECT_THROW(bit_sim.forceNet("EO_n1", 2, Val::kX), bs::BitSimError);
}

// --- plan-compiler rejections ---------------------------------------------

TEST(BitSim, RejectsLatchesAndFallsBackToEventEngine) {
  nl::Design d;
  nl::Module& m = d.addModule("latchy");
  const auto in = nl::PortDir::kInput;
  const auto out = nl::PortDir::kOutput;
  const nl::NetId clk = m.addNet("clk");
  const nl::NetId rst_n = m.addNet("rst_n");
  m.addPort("clk", in, clk);
  m.addPort("rst_n", in, rst_n);
  const nl::NetId q0 = m.addNet("q0");
  const nl::NetId nq0 = m.addNet("nq0");
  const nl::NetId lq = m.addNet("lq");
  m.addCell("i0", "IV", {{"A", in, q0}, {"Z", out, nq0}});
  m.addCell("l0", "LD", {{"D", in, nq0}, {"G", in, clk}, {"Q", out, lq}});
  m.addCell("r0", "DFFR",
            {{"D", in, lq}, {"CP", in, clk}, {"CDN", in, rst_n},
             {"Q", out, q0}});
  m.addPort("q", out, q0);
  const lib::BoundModule bound(m, gf());
  EXPECT_THROW(bs::compilePlan(bound), bs::BitSimError);

  // The golden-run helper must silently fall back to the event engine.
  sim::SyncStimulus st;
  st.half_period_ns = 5.0;
  st.cycles = 12;
  sim::Simulator es(bound);
  sim::runSyncStimulus(es, st);
  EXPECT_EQ(digest(sim::goldenSyncBatches(bound, st, 1).front()),
            digest(es.captures()));
}

TEST(BitSim, RejectsCombinationalCycles) {
  nl::Design d;
  nl::Module& m = d.addModule("looped");
  const auto in = nl::PortDir::kInput;
  const auto out = nl::PortDir::kOutput;
  const nl::NetId clk = m.addNet("clk");
  const nl::NetId rst_n = m.addNet("rst_n");
  m.addPort("clk", in, clk);
  m.addPort("rst_n", in, rst_n);
  const nl::NetId q0 = m.addNet("q0");
  const nl::NetId a = m.addNet("a");
  const nl::NetId b = m.addNet("b");
  // Cross-coupled NOR pair: a structural combinational cycle.
  m.addCell("n0", "NR2", {{"A", in, q0}, {"B", in, b}, {"Z", out, a}});
  m.addCell("n1", "NR2", {{"A", in, a}, {"B", in, q0}, {"Z", out, b}});
  m.addCell("r0", "DFFR",
            {{"D", in, a}, {"CP", in, clk}, {"CDN", in, rst_n},
             {"Q", out, q0}});
  const lib::BoundModule bound(m, gf());
  try {
    (void)bs::compilePlan(bound);
    FAIL() << "combinational cycle not rejected";
  } catch (const bs::BitSimError& e) {
    EXPECT_NE(std::string(e.what()).find("cycle"), std::string::npos);
  }
}

// --- shared-plan concurrency (race-checked in the .tsan variant) ----------

TEST(BitSim, SharedPlanEvaluatesConcurrently) {
  const std::string text = fuzz::generateVerilog(gf(), 7);
  nl::Design d;
  nl::readVerilog(d, text, gf());
  const lib::BoundModule bound(d.top(), gf());
  const bs::BitPlan plan = bs::compilePlan(bound);
  sim::SyncStimulus st;
  st.half_period_ns = 10.0;
  st.cycles = 10;

  bs::BitSim reference(plan);
  sim::runSyncStimulus(reference, st);
  const std::string want = digest(reference.captures(0));

  core::setThreadJobs(8);
  std::vector<std::string> got(16);
  core::parallelFor(got.size(), [&](std::size_t i) {
    bs::BitSim s(plan);
    sim::runSyncStimulus(s, st);
    got[i] = digest(s.captures(0));
  });
  core::setThreadJobs(0);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want) << "concurrent run " << i;
  }
}

TEST(BitSim, StatsAccumulate) {
  const bs::BitsimStats before = bs::bitsimStats();
  const std::string text = fuzz::generateVerilog(gf(), 3);
  nl::Design d;
  nl::readVerilog(d, text, gf());
  const lib::BoundModule bound(d.top(), gf());
  const bs::BitPlan plan = bs::compilePlan(bound);
  bs::BitSim s(plan);
  sim::SyncStimulus st;
  st.half_period_ns = 10.0;
  st.cycles = 5;
  sim::runSyncStimulus(s, st);
  const bs::BitsimStats after = bs::bitsimStats();
  EXPECT_GE(after.compiles, before.compiles + 1);
  EXPECT_GE(after.cycles, before.cycles + 5);
  EXPECT_EQ(after.lane_vectors, after.cycles * sim::kLanes);
  EXPECT_GT(after.levels, 0u);
  EXPECT_GE(plan.compile_ms, 0.0);
}
