// Flow instrumentation: per-pass wall times and work counters.
//
// Every pass of desynchronize() runs under a ScopedPass, which records its
// wall-clock time and whatever counters the pass reports (cells, nets,
// regions, replaced flip-flops, ...).  The collected FlowReport travels in
// DesyncResult; `drdesync --report` serializes it as JSON (schema in
// docs/report-schema.md) and bench_tool_runtime republishes the per-pass
// times in its BENCH JSON, so pass-level regressions show up in bench
// trajectories without re-profiling.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/trace.h"
#include "util/json.h"

namespace desync::core {

/// One timed pass of the flow.
struct PassStat {
  std::string name;
  double wall_ms = 0.0;
  /// Summed per-task time of the pass's parallel section (0 when the pass
  /// ran serially).  work_ms / wall_ms is the realized speedup; toJson
  /// emits both so `--report` exposes the scaling at the current --jobs.
  double work_ms = 0.0;
  /// Pass-specific work counters, in insertion order (e.g. "cells",
  /// "nets", "ffs_replaced").
  std::vector<std::pair<std::string, std::int64_t>> counters;

  [[nodiscard]] std::int64_t counter(std::string_view key,
                                     std::int64_t fallback = -1) const {
    for (const auto& [k, v] : counters) {
      if (k == key) return v;
    }
    return fallback;
  }
};

/// FlowDB cache traffic of one flow run (zeroed / disabled when the flow
/// ran without --cache-dir).  Serialized as the top-level "cache" object.
struct FlowCacheStats {
  bool enabled = false;
  /// The design's proof-table slot: 1/0 when a valid table was loaded
  /// (warm), 0/1 when the run was cold (absent or invalid slot).
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;  ///< includes this run's table store
  /// Time spent loading the proof table vs computing the seven passes.
  double restore_ms = 0.0;
  double compute_ms = 0.0;
};

/// Ordered collection of pass statistics for one flow run.
class FlowReport {
 public:
  /// Appends a pass record and returns it for filling in.  References are
  /// invalidated by further addPass calls — use the returned reference
  /// immediately (ScopedPass does this correctly).
  PassStat& addPass(std::string name);

  [[nodiscard]] const std::vector<PassStat>& passes() const {
    return passes_;
  }
  /// Worker count the flow ran with (core::effectiveJobs() at flow entry);
  /// 0 when never set.  Serialized as the top-level "jobs" field.
  void setJobs(int jobs) { jobs_ = jobs; }
  [[nodiscard]] int jobs() const { return jobs_; }
  /// First pass with the given name; nullptr when absent.
  [[nodiscard]] const PassStat* find(std::string_view name) const;
  /// Sum of all pass wall times.
  [[nodiscard]] double totalMs() const;

  /// FlowDB cache traffic; stats.enabled gates the "cache" JSON object.
  void setCacheStats(FlowCacheStats stats) { cache_ = std::move(stats); }
  [[nodiscard]] const FlowCacheStats& cacheStats() const { return cache_; }

  /// Bit-parallel simulator statistics of this run's flow-equivalence
  /// check (sim/bitsim counter deltas across the check).  Serialized as
  /// the top-level "bitsim" object when at least one plan was compiled,
  /// i.e. only when the check actually took the bit-parallel path.
  struct BitsimSection {
    std::uint64_t compiles = 0;   ///< plans compiled
    double compile_ms = 0.0;      ///< total plan-compile time
    std::int64_t levels = 0;      ///< deepest compiled plan (comb levels)
    int lanes = 0;                ///< vector lanes per pass (64)
    std::uint64_t cycles = 0;     ///< clock cycles evaluated
    std::uint64_t lane_vectors = 0;  ///< cycles * lanes
    double eval_ms = 0.0;         ///< total evaluation time
    double vectors_per_sec = 0.0;  ///< lane_vectors / eval seconds
  };
  void setBitsim(BitsimSection bitsim) { bitsim_ = bitsim; }
  [[nodiscard]] const BitsimSection& bitsim() const { return bitsim_; }

  /// Symbolic flow-equivalence prover statistics (fe_prove pass).
  /// Serialized as the top-level "symfe" object when the pass ran.
  struct SymfeSection {
    bool ran = false;
    std::int64_t registers = 0;
    std::int64_t proved = 0;
    std::int64_t refuted = 0;
    std::int64_t skipped = 0;
    std::int64_t restored = 0;    ///< subset of proved: reused proofs
    std::int64_t trivial = 0;     ///< proved fresh as one literal
    std::int64_t solvers = 0;     ///< fresh solver instances
    std::int64_t graph_nodes = 0;  ///< nodes of the pair's proof graph
    std::int64_t conflicts = 0;   ///< total solver conflicts
    std::int64_t decisions = 0;   ///< total solver decisions
    std::int64_t protocol_states = 0;  ///< markings explored (fully dec.)
    bool protocol_admissible = true;
    bool comb_only = false;
    double graph_ms = 0.0;  ///< task list, proof graph and keys
    double solve_ms = 0.0;  ///< restores, CNF and SAT
    double ms = 0.0;
  };
  void setSymfe(SymfeSection symfe) {
    symfe_ = symfe;
    symfe_.ran = true;
  }
  [[nodiscard]] const SymfeSection& symfe() const { return symfe_; }

  /// Proof-cache statistics of a `--cache-dir` prover run (core/eco.h).
  /// Serialized as the top-level "eco" object when the cache ran.
  struct EcoSection {
    bool ran = false;   ///< gates the JSON object; set by setEco
    bool warm = false;  ///< a valid proof table was loaded
    std::int64_t proofs_loaded = 0;       ///< entries of the loaded table
    std::int64_t registers_restored = 0;  ///< proofs reused, SAT skipped
    std::int64_t proofs_stored = 0;       ///< entries this run stored
    /// Always 0 and not serialized: the ECO diff that counted these is
    /// gone, but perfbench still reads the members.
    std::int64_t regions_total = 0;
    std::int64_t regions_restored = 0;
    std::int64_t endpoints_restored = 0;
    std::int64_t cells_changed = 0;
  };
  void setEco(EcoSection eco) {
    eco_ = eco;
    eco_.ran = true;
  }
  [[nodiscard]] const EcoSection& eco() const { return eco_; }

  /// Pool contention this flow experienced (core::poolStats() delta across
  /// the run): how many of its parallel sections had to wait for another
  /// top-level caller's section, and for how long.  Serialized as the
  /// top-level "pool" object when any section was contended, so serialized
  /// concurrent requests are visible in `--report` instead of silent.
  void setPoolContention(std::uint64_t contended, double wait_ms) {
    pool_contended_ = contended;
    pool_wait_ms_ = wait_ms;
  }
  [[nodiscard]] std::uint64_t poolContended() const { return pool_contended_; }

  /// Appends a free-form diagnostic note (e.g. "cache entry invalid:
  /// ...").  Serialized as the top-level "notes" array when non-empty.
  void note(std::string text) { notes_.push_back(std::move(text)); }
  [[nodiscard]] const std::vector<std::string>& notes() const {
    return notes_;
  }

  /// Post-trace statistics from trace::finish() (`--trace` runs only);
  /// serialized as the top-level "trace" object when enabled.
  void setTraceSummary(trace::Summary summary) {
    trace_ = std::move(summary);
  }
  [[nodiscard]] const std::optional<trace::Summary>& traceSummary() const {
    return trace_;
  }

  /// Serializes as a JSON object:
  ///   {"total_ms": 12.3, "jobs": 4,
  ///    "cache": {"hits": 1, "misses": 0, "bytes_read": 1024,
  ///              "bytes_written": 2048, "restore_ms": 0.8,
  ///              "compute_ms": 11.5},
  ///    "passes": [{"name": "...", "wall_ms": 1.2,
  ///                "work_ms": 4.6, "speedup": 3.83, "cells": 42, ...}],
  ///    "notes": ["..."]}
  /// Counter keys become sibling fields of name/wall_ms within each pass
  /// object; work_ms/speedup appear only for passes with a parallel
  /// section; "cache"/"notes"/"trace"/"bitsim" appear only when cache
  /// stats are enabled / notes exist / a trace summary was attached / the
  /// flow-equivalence check compiled a bit-parallel plan.  The "trace"
  /// object carries the trace file path, event totals, worker-track count
  /// and utilization, and per-pass self times (docs/report-schema.md).
  [[nodiscard]] util::Json toJson() const;

 private:
  std::vector<PassStat> passes_;
  int jobs_ = 0;
  BitsimSection bitsim_;
  SymfeSection symfe_;
  EcoSection eco_;
  std::uint64_t pool_contended_ = 0;
  double pool_wait_ms_ = 0.0;
  FlowCacheStats cache_;
  std::vector<std::string> notes_;
  std::optional<trace::Summary> trace_;
};

/// A report number: rounded to six decimals (milliseconds to the
/// nanosecond) so that Json::dump's shortest form reads "3.21", not
/// "3.2100000000000004".
[[nodiscard]] util::Json reportNumber(double v);

/// RAII pass timer: measures from construction to destruction and appends
/// a PassStat (with any counters registered in between) to the report.
class ScopedPass {
 public:
  ScopedPass(FlowReport& report, std::string name);
  ~ScopedPass();
  ScopedPass(const ScopedPass&) = delete;
  ScopedPass& operator=(const ScopedPass&) = delete;

  /// Records a work counter reported with the pass.
  void counter(std::string key, std::int64_t value);
  /// Accumulates per-task time of the pass's parallel section.
  void work(double ms) { work_ms_ += ms; }

 private:
  FlowReport* report_;
  std::string name_;
  std::vector<std::pair<std::string, std::int64_t>> counters_;
  double work_ms_ = 0.0;
  std::chrono::steady_clock::time_point start_;
  /// "pass"-category trace span covering the pass body (declared last so
  /// its end event is recorded as the pass scope closes).
  trace::Span span_;
};

}  // namespace desync::core
