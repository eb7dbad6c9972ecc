// Shared harness for the evaluation benches (thesis chapter 5).
//
// Builds the DLX / ARM-class case studies, desynchronizes them with the
// paper's manual four-stage regions, and provides the measurement loops the
// tables and figures are generated from.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/desync.h"
#include "core/parallel.h"
#include "designs/cpu.h"
#include "liberty/stdlib90.h"
#include "netlist/flatten.h"
#include "sim/flow_equivalence.h"
#include "sim/power.h"
#include "sim/simulator.h"
#include "sim/stimulus.h"
#include "sta/sta.h"
#include "util/json.h"
#include "variability/variability.h"

namespace bench {

namespace core = desync::core;
namespace designs = desync::designs;
namespace lib = desync::liberty;
namespace nl = desync::netlist;
namespace sim = desync::sim;
namespace sta = desync::sta;
namespace var = desync::variability;

inline const lib::Gatefile& gatefileHs() {
  static const lib::Library l = lib::makeStdLib90(lib::LibVariant::kHighSpeed);
  static const lib::Gatefile g(l);
  return g;
}

inline const lib::Gatefile& gatefileLl() {
  static const lib::Library l =
      lib::makeStdLib90(lib::LibVariant::kLowLeakage);
  static const lib::Gatefile g(l);
  return g;
}

/// The paper's DLX regions: the four pipeline stages (thesis §5.2).
inline std::vector<std::vector<std::string>> dlxStageRegions() {
  return {{"pc_", "ifid_"}, {"idex_"}, {"exmem_", "red_"}, {"rf_", "dmem_"}};
}

/// A DLX pair: pristine synchronous copy + desynchronized version.
struct DlxPair {
  nl::Design sync_design;
  nl::Design desync_design;
  core::DesyncResult report;
  const lib::Gatefile* gf = nullptr;

  nl::Module& syncModule() { return sync_design.top(); }
  nl::Module& desyncModule() { return *desync_design.findModule("dlx"); }
};

inline DlxPair makeDlxPair(int mux_taps = 0, double margin = 1.15) {
  DlxPair pair;
  pair.gf = &gatefileHs();
  designs::buildCpu(pair.desync_design, *pair.gf, designs::dlxConfig());
  nl::cloneModule(pair.sync_design,
                  *pair.desync_design.findModule("dlx"));
  pair.sync_design.setTop("dlx");
  core::DesyncOptions opt;
  opt.control.reset_port = "rst_n";
  opt.control.reset_active_low = true;
  opt.control.mux_taps = mux_taps;
  opt.control.margin = margin;
  opt.manual_seq_groups = dlxStageRegions();
  pair.report = core::desynchronize(pair.desync_design,
                                    pair.desyncModule(), *pair.gf, opt);
  return pair;
}

/// Runs the synchronous DLX for `cycles` at `period_ns`, returning the sim.
/// Takes the module const: several batches may run concurrently over the
/// same netlist (each with its own simulator instance).
inline std::unique_ptr<sim::Simulator> runSync(const nl::Module& m,
                                               const lib::Gatefile& gf,
                                               double period_ns, int cycles,
                                               sim::SimOptions so = {}) {
  auto s = std::make_unique<sim::Simulator>(m, gf, std::move(so));
  const sim::Time half = sim::nsToPs(period_ns / 2);
  s->setInput("clk", sim::Val::k0);
  s->setInput("rst_n", sim::Val::k0);
  s->run(2 * half);
  s->setInput("rst_n", sim::Val::k1);
  s->run(s->now() + half);
  for (int i = 0; i < cycles; ++i) {
    s->setInput("clk", sim::Val::k1);
    s->run(s->now() + half);
    s->setInput("clk", sim::Val::k0);
    s->run(s->now() + half);
  }
  return s;
}

struct DesyncRun {
  std::unique_ptr<sim::Simulator> sim;
  double eff_period_ns = -1;  ///< effective period from G1 master enables
  int cycles = 0;
};

/// Runs the desynchronized circuit for a time window, measuring the
/// effective period.  `dsel` sets the delay-element calibration mux (-1 =
/// no mux ports).
inline DesyncRun runDesync(const nl::Module& m, const lib::Gatefile& gf,
                           double window_ns, int dsel = -1,
                           sim::SimOptions so = {}) {
  DesyncRun run;
  run.sim = std::make_unique<sim::Simulator>(m, gf, std::move(so));
  sim::Simulator& s = *run.sim;
  std::vector<sim::Time> rises;
  s.watchNet("G1_gm", [&](sim::Time t, sim::Val v) {
    if (v == sim::Val::k1) rises.push_back(t);
  });
  if (dsel >= 0) {
    for (int b = 0; b < 3; ++b) {
      if (s.portNet("dsel" + std::to_string(b)).valid()) {
        s.setInput("dsel" + std::to_string(b),
                   sim::fromBool(((dsel >> b) & 1) != 0));
      }
    }
  }
  sim::resetDesyncStimulus(s, sim::SyncStimulus{});
  s.run(s.now() + sim::nsToPs(window_ns));
  run.cycles = static_cast<int>(rises.size());
  if (rises.size() > 4) {
    run.eff_period_ns = static_cast<double>(rises.back() - rises[2]) /
                        static_cast<double>(rises.size() - 3) / 1000.0;
  }
  return run;
}

// --- repeated measurement + machine-readable results ---------------------
//
// Wall-clock numbers from a single run are noisy; every timed bench section
// runs `benchRepeats()` times and reports the min and the median.  The
// deterministic *results* go to stdout (byte-identical across --jobs
// settings); the timing numbers go to a BENCH_<name>.json file next to the
// binary so CI can track trajectories without parsing tables.

/// Repeat count for timed sections (DESYNC_BENCH_REPEATS env, default 3).
inline int benchRepeats(int fallback = 3) {
  if (const char* env = std::getenv("DESYNC_BENCH_REPEATS")) {
    const int v = std::atoi(env);
    if (v >= 1 && v <= 100) return v;
  }
  return fallback;
}

struct RepeatedTiming {
  std::vector<double> runs_ms;  ///< per-run wall time, run order
  double min_ms = 0.0;
  double median_ms = 0.0;
};

/// Fills min_ms / median_ms from a non-empty `t.runs_ms`.
inline void summarizeTiming(RepeatedTiming& t) {
  std::vector<double> sorted = t.runs_ms;
  std::sort(sorted.begin(), sorted.end());
  t.min_ms = sorted.front();
  t.median_ms = sorted[sorted.size() / 2];
}

/// Runs `fn` `repeats` times, returning min/median wall time.  `fn` must be
/// idempotent (the deterministic results are identical on every repeat).
template <typename Fn>
RepeatedTiming measureRepeated(int repeats, Fn&& fn) {
  RepeatedTiming t;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    t.runs_ms.push_back(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
  }
  summarizeTiming(t);
  return t;
}

/// Writes BENCH_<name>.json on one line: {"name", "build_type",
/// "commit", "compiler", "nproc", "jobs", "repeats", "min_ms",
/// "median_ms", extra numeric fields..., "runs_ms": [...]}.  build_type,
/// commit (`git describe --always --dirty` at configure time, "unknown"
/// outside a checkout), compiler, nproc and jobs (the worker count the
/// measurement ran with, --jobs / DESYNC_JOBS) are the provenance two
/// trajectories need to be comparable.
inline void writeBenchJson(
    const std::string& name, const RepeatedTiming& t,
    const std::vector<std::pair<std::string, double>>& extra = {}) {
  using desync::util::Json;
  Json out = Json::object();
  out.set("name", Json::str(name));
  out.set("build_type", Json::str(DESYNC_BUILD_TYPE));
  out.set("commit", Json::str(DESYNC_GIT_DESCRIBE));
  out.set("compiler", Json::str("gcc-compatible " __VERSION__));
  out.set("nproc", Json::number(std::thread::hardware_concurrency()));
  out.set("jobs", Json::number(core::effectiveJobs()));
  out.set("repeats", Json::number(static_cast<double>(t.runs_ms.size())));
  out.set("min_ms", Json::number(t.min_ms));
  out.set("median_ms", Json::number(t.median_ms));
  for (const auto& [k, v] : extra) out.set(k, Json::number(v));
  Json runs = Json::array();
  for (const double ms : t.runs_ms) runs.push(Json::number(ms));
  out.set("runs_ms", std::move(runs));
  std::ofstream("BENCH_" + name + ".json") << out.dump() << "\n";
}

/// printf-style row helper.
inline void row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stdout, fmt, args);
  va_end(args);
  std::fputc('\n', stdout);
}

inline void header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

}  // namespace bench
