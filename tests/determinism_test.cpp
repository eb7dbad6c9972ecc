// Determinism contract of the parallel execution layer: every workload
// wired onto core/parallel.h must produce byte-identical results at
// --jobs 1 (exact serial path) and at a high worker count.  These tests
// run each of the three wired sites — Monte-Carlo SSTA samples,
// multi-corner STA and flow-equivalence vector batches — under both
// settings and compare the complete result structures.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/desync.h"
#include "core/parallel.h"
#include "designs/small.h"
#include "liberty/bound.h"
#include "liberty/stdlib90.h"
#include "netlist/flatten.h"
#include "netlist/verilog.h"
#include "sim/flow_equivalence.h"
#include "sim/simulator.h"
#include "sim/stimulus.h"
#include "sta/sta.h"
#include "trace/trace.h"
#include "variability/variability.h"

namespace core = desync::core;
namespace designs = desync::designs;
namespace lib = desync::liberty;
namespace nl = desync::netlist;
namespace sim = desync::sim;
namespace sta = desync::sta;
namespace var = desync::variability;

namespace {

constexpr int kParallelJobs = 8;

const lib::Gatefile& gf() {
  static const lib::Library l = lib::makeStdLib90(lib::LibVariant::kHighSpeed);
  static const lib::Gatefile g(l);
  return g;
}

/// A desynchronized pipe2 plus its pristine synchronous clone — the small
/// shared fixture all three determinism checks run against.
struct Fixture {
  nl::Design desync_design;
  nl::Design sync_design;
  core::DesyncResult report;

  nl::Module& desyncModule() { return *desync_design.findModule("pipe2"); }
  nl::Module& syncModule() { return sync_design.top(); }
};

Fixture& fixture() {
  static Fixture* f = [] {
    auto* fx = new Fixture;
    designs::buildPipe2(fx->desync_design, gf(), 6);
    nl::cloneModule(fx->sync_design, *fx->desync_design.findModule("pipe2"));
    fx->sync_design.setTop("pipe2");
    core::DesyncOptions opt;
    opt.control.reset_port = "rst_n";
    opt.control.reset_active_low = true;
    fx->report = core::desynchronize(fx->desync_design, fx->desyncModule(),
                                     gf(), opt);
    return fx;
  }();
  return *f;
}

/// Runs `fn` with --jobs 1 and with kParallelJobs, restoring the default.
template <typename Fn>
auto runBoth(Fn&& fn) {
  core::setThreadJobs(1);
  auto serial = fn();
  core::setThreadJobs(kParallelJobs);
  auto parallel = fn();
  core::setThreadJobs(0);
  return std::make_pair(std::move(serial), std::move(parallel));
}

}  // namespace

TEST(Determinism, SstaMarginsIdenticalAcrossJobs) {
  Fixture& fx = fixture();
  const lib::BoundModule bound(fx.desyncModule(), gf());
  const var::VariationModel model = var::makeSpanModel(11);
  constexpr std::size_t kSamples = 32;

  auto run = [&] {
    std::vector<double> periods(kSamples, 0.0);
    std::vector<double> globals(kSamples, 0.0);
    var::forEachSample(model, kSamples,
                       [&](std::size_t s, const var::ChipSample& chip) {
                         sta::StaOptions so;
                         so.disabled = fx.report.sdc.disabled;
                         so.delay_scale = chip.global;
                         so.cell_scale = chip.cell_factor;
                         periods[s] = sta::Sta(bound, so).minPeriodNs();
                         globals[s] = chip.global;
                       });
    return std::make_pair(periods, globals);
  };
  auto [serial, parallel] = runBoth(run);
  // Bit-exact, not approximate: the contract is byte-identical output.
  ASSERT_EQ(serial.first.size(), parallel.first.size());
  for (std::size_t s = 0; s < serial.first.size(); ++s) {
    EXPECT_EQ(serial.first[s], parallel.first[s]) << "sample " << s;
    EXPECT_EQ(serial.second[s], parallel.second[s]) << "sample " << s;
  }
  // And the sampled periods are real analyses, not zeros.
  for (double p : serial.first) EXPECT_GT(p, 0.0);
}

TEST(Determinism, MultiCornerStaIdenticalAcrossJobs) {
  Fixture& fx = fixture();
  const lib::BoundModule bound(fx.desyncModule(), gf());

  auto run = [&] {
    std::vector<sta::StaOptions> options;
    for (double scale : {0.72, 1.0, 1.2, 1.45, 1.6, 2.0}) {
      sta::StaOptions so;
      so.disabled = fx.report.sdc.disabled;
      so.delay_scale = scale;
      options.push_back(std::move(so));
    }
    std::vector<std::unique_ptr<sta::Sta>> analyses =
        sta::analyzeCorners(bound, std::move(options));
    std::vector<double> periods;
    std::vector<double> criticals;
    for (const auto& a : analyses) {
      periods.push_back(a->minPeriodNs());
      criticals.push_back(a->criticalPathNs());
    }
    return std::make_pair(periods, criticals);
  };
  auto [serial, parallel] = runBoth(run);
  ASSERT_EQ(serial.first.size(), parallel.first.size());
  for (std::size_t i = 0; i < serial.first.size(); ++i) {
    EXPECT_EQ(serial.first[i], parallel.first[i]) << "corner " << i;
    EXPECT_EQ(serial.second[i], parallel.second[i]) << "corner " << i;
  }
  for (double p : serial.first) EXPECT_GT(p, 0.0);
}

TEST(Determinism, RegionWorstDelaysIdenticalAcrossJobs) {
  Fixture& fx = fixture();
  const lib::BoundModule bound(fx.desyncModule(), gf());
  sta::StaOptions so;
  so.disabled = fx.report.sdc.disabled;
  const sta::Sta analysis(bound, so);

  auto run = [&] {
    return analysis.regionWorstDelays(fx.report.regions.seq_cells, "_Lm");
  };
  auto [serial, parallel] = runBoth(run);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t g = 0; g < serial.size(); ++g) {
    EXPECT_EQ(serial[g], parallel[g]) << "region " << g;
  }
}

TEST(Determinism, TracingDoesNotChangeFlowOutput) {
  // The tracer's determinism contract (trace/trace.h): enabling tracing
  // must not change a single byte of flow output.  Run the full flow on a
  // fresh pipe2 with tracing off and on and compare the generated netlist
  // and SDC text.
  auto runFlow = [] {
    nl::Design design;
    designs::buildPipe2(design, gf(), 6);
    nl::Module& module = *design.findModule("pipe2");
    core::DesyncOptions opt;
    opt.control.reset_port = "rst_n";
    opt.control.reset_active_low = true;
    core::DesyncResult result =
        core::desynchronize(design, module, gf(), opt);
    return std::make_pair(nl::writeVerilog(design), result.sdc.toText());
  };
  core::setThreadJobs(kParallelJobs);
  auto plain = runFlow();
  desync::trace::start(std::string(::testing::TempDir()) +
                       "determinism_trace.json");
  auto traced = runFlow();
  desync::trace::finish();
  core::setThreadJobs(0);
  EXPECT_EQ(plain.first, traced.first);
  EXPECT_EQ(plain.second, traced.second);
  EXPECT_FALSE(plain.first.empty());
}

TEST(Determinism, FlowEquivalenceBatchesIdenticalAcrossJobs) {
  Fixture& fx = fixture();
  constexpr std::size_t kBatches = 4;

  // Batch b: the synchronous reference runs 10+2*b clock cycles; the
  // desynchronized side free-runs until it has the captures batch b's
  // golden run needs.  Stimulus derives from the batch index alone, per
  // the SimFactory contract; the golden logs are computed up front and
  // only read by the factories.
  auto stimulus = [&](std::size_t b) {
    sim::SyncStimulus st;
    st.half_period_ns = fx.report.sync_min_period_ns;
    st.cycles = 10 + 2 * static_cast<int>(b);
    return st;
  };
  auto runSyncBatch = [&](std::size_t b) {
    auto s = std::make_unique<sim::Simulator>(fx.syncModule(), gf());
    sim::runSyncStimulus(*s, stimulus(b));
    return s;
  };
  std::vector<std::vector<sim::CaptureLog>> golden;
  for (std::size_t b = 0; b < kBatches; ++b) {
    golden.push_back(runSyncBatch(b)->captures());
  }
  auto runDesyncBatch = [&](std::size_t b) {
    auto s = std::make_unique<sim::Simulator>(fx.desyncModule(), gf());
    sim::runDesyncStimulus(*s, stimulus(b), golden[b]);
    return s;
  };

  auto run = [&] {
    return sim::checkFlowEquivalenceBatches(kBatches, runSyncBatch,
                                            runDesyncBatch);
  };
  auto [serial, parallel] = runBoth(run);

  EXPECT_TRUE(serial.equivalent);
  EXPECT_EQ(serial.equivalent, parallel.equivalent);
  EXPECT_EQ(serial.batches_run, parallel.batches_run);
  EXPECT_EQ(serial.elements_compared, parallel.elements_compared);
  EXPECT_EQ(serial.values_compared, parallel.values_compared);
  EXPECT_EQ(serial.mismatches, parallel.mismatches);
  ASSERT_EQ(serial.per_batch.size(), parallel.per_batch.size());
  for (std::size_t b = 0; b < serial.per_batch.size(); ++b) {
    EXPECT_EQ(serial.per_batch[b].equivalent, parallel.per_batch[b].equivalent);
    EXPECT_EQ(serial.per_batch[b].values_compared,
              parallel.per_batch[b].values_compared);
    EXPECT_EQ(serial.per_batch[b].mismatches,
              parallel.per_batch[b].mismatches);
  }
  EXPECT_GT(serial.values_compared, 0u);
}

TEST(Determinism, GoldenSyncBatchesIdenticalAcrossEnginesAndJobs) {
  // The --fe-check golden side (bitsim, 64 batches per pass) must be
  // byte-identical to the event-engine reference — one Simulator per batch
  // driven by runSyncStimulus — at any worker count.
  Fixture& fx = fixture();
  const lib::BoundModule bound(fx.syncModule(), gf());
  sim::SyncStimulus base;
  base.half_period_ns = fx.report.sync_min_period_ns;
  base.cycles = 10;

  auto digestAll = [](const std::vector<std::vector<sim::CaptureLog>>& bs) {
    std::string d;
    for (const auto& batch : bs) {
      for (const sim::CaptureLog& log : batch) {
        d += log.element;
        d += '=';
        for (sim::Val v : log.values) d += sim::toChar(v);
        d += '\n';
      }
      d += ';';
    }
    return d;
  };
  auto run = [&] {
    const std::vector<std::vector<sim::CaptureLog>> event =
        core::parallelMap(6, [&](std::size_t b) {
          sim::Simulator es(bound);
          sim::SyncStimulus st = base;
          st.cycles = sim::feBatchCycles(base, b);
          sim::runSyncStimulus(es, st);
          return es.captures();
        });
    return std::make_pair(digestAll(event),
                          digestAll(sim::goldenSyncBatches(bound, base, 6)));
  };
  auto [serial, parallel] = runBoth(run);
  EXPECT_FALSE(serial.first.empty());
  EXPECT_EQ(serial.first, serial.second) << "engines disagree at --jobs 1";
  EXPECT_EQ(parallel.first, parallel.second)
      << "engines disagree at --jobs " << kParallelJobs;
  EXPECT_EQ(serial.first, parallel.first) << "event digest depends on --jobs";
  EXPECT_EQ(serial.second, parallel.second)
      << "bitsim digest depends on --jobs";
}

// The cached prover path fans proofs and proof reuse out over the same
// parallel layer; a warm re-flow over a primed proof table must stay
// byte-identical, proof records included, at any worker count (and both
// runs must actually load the table).
TEST(Determinism, EcoWarmRunIdenticalAcrossJobs) {
  namespace fs = std::filesystem;
  const fs::path primed = fs::path(::testing::TempDir()) / "det_eco_primed";
  fs::remove_all(primed);
  fs::create_directories(primed);

  const auto optionsFor = [](const fs::path& dir) {
    core::DesyncOptions opt;
    opt.control.reset_port = "rst_n";
    opt.control.reset_active_low = true;
    opt.fe.mode = core::FeMode::kProve;
    opt.flowdb.cache_dir = dir.string();
    return opt;
  };

  {  // Prime the proof table on the pristine design.
    nl::Design d;
    designs::buildPipe2(d, gf(), 6);
    core::desynchronize(d, *d.findModule("pipe2"), gf(), optionsFor(primed));
  }

  int invocation = 0;
  const auto run = [&] {
    // Each run gets its own copy of the primed table: the warm run
    // re-stores the slot, and both jobs settings must read identical
    // inputs.
    const fs::path dir =
        fs::path(::testing::TempDir()) /
        ("det_eco_run" + std::to_string(invocation++));
    fs::remove_all(dir);
    fs::copy(primed, dir, fs::copy_options::recursive);

    nl::Design d;
    designs::buildPipe2(d, gf(), 6);
    nl::Module& m = *d.findModule("pipe2");
    // The ECO edit: tie the first combinational input pin to constant 1.
    bool edited = false;
    m.forEachCell([&](nl::CellId c) {
      if (edited || !gf().isCombinational(std::string(m.cellType(c)))) return;
      const auto& pins = m.pins(c);
      for (std::size_t p = 0; p < pins.size(); ++p) {
        if (pins[p].dir == nl::PortDir::kInput && pins[p].net.valid()) {
          m.connectPin(c, p, m.constNet(true));
          edited = true;
          return;
        }
      }
    });
    EXPECT_TRUE(edited);
    core::DesyncResult r = core::desynchronize(d, m, gf(), optionsFor(dir));
    EXPECT_TRUE(r.flow.eco().warm) << "run " << invocation;
    EXPECT_GT(r.symfe.report.restored, 0u) << "run " << invocation;
    std::string proofs;
    for (const auto& p : r.symfe.report.registers) {
      proofs += p.name + " " + std::to_string(static_cast<int>(p.verdict)) +
                " " + std::to_string(p.trivial) + " " +
                std::to_string(p.conflicts) + " " +
                std::to_string(p.decisions) + "\n";
    }
    return nl::writeVerilog(d) + "\n====\n" + r.sdc.toText() + "\n====\n" +
           proofs;
  };
  auto [serial, parallel] = runBoth(run);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel) << "ECO warm output depends on --jobs";
}
