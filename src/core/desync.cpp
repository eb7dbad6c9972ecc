#include "core/desync.h"

#include <algorithm>
#include <chrono>

#include "core/eco.h"
#include "core/parallel.h"
#include "liberty/library.h"
#include "netlist/flatten.h"
#include "sim/bitsim/bitsim.h"
#include "sta/sta.h"
#include "trace/trace.h"
#include "variability/variability.h"

namespace desync::core {

FeMode parseFeMode(const std::string& text) {
  if (text == "sim") return FeMode::kSim;
  if (text == "prove") return FeMode::kProve;
  if (text == "both") return FeMode::kBoth;
  throw std::invalid_argument("unknown --fe-mode \"" + text +
                              "\" (expected sim, prove or both)");
}

const char* feModeName(FeMode mode) {
  switch (mode) {
    case FeMode::kSim:
      return "sim";
    case FeMode::kProve:
      return "prove";
    case FeMode::kBoth:
      return "both";
  }
  return "unknown";
}

std::vector<std::vector<std::string>> parseManualGroups(
    std::string_view spec) {
  // Splits `text` at `sep`, calling `each` on every field.
  const auto split = [](std::string_view text, char sep, auto&& each) {
    for (std::size_t begin = 0; begin <= text.size();) {
      const std::size_t end = std::min(text.find(sep, begin), text.size());
      each(text.substr(begin, end - begin));
      begin = end + 1;
    }
  };
  std::vector<std::vector<std::string>> groups;
  split(spec, ';', [&](std::string_view group) {
    std::vector<std::string> prefixes;
    split(group, ',', [&](std::string_view prefix) {
      if (!prefix.empty()) prefixes.emplace_back(prefix);
    });
    if (!prefixes.empty()) groups.push_back(std::move(prefixes));
  });
  return groups;
}

namespace {

/// Pass-boundary counter samples (`--trace` runs only): cumulative liberty
/// lookup totals, FlowDB cache traffic and the process's peak RSS, so the
/// trace shows which pass grew which resource (docs/trace-format.md).
void tracePassBoundaryCounters(const liberty::Gatefile& gatefile,
                               const ProofCache* cache) {
  if (!trace::enabled()) return;
  trace::counter("liberty_cell_lookups",
                 static_cast<double>(gatefile.library().lookupCount()));
  trace::counter("liberty_pin_lookups",
                 static_cast<double>(liberty::detail::pinLookupCount()));
  trace::counter("peak_rss_mb", static_cast<double>(trace::peakRssBytes()) /
                                    (1024.0 * 1024.0));
  if (cache != nullptr) {
    trace::counter("cache_bytes_read",
                   static_cast<double>(cache->cacheStats().bytes_read));
    trace::counter("cache_bytes_written",
                   static_cast<double>(cache->cacheStats().bytes_written));
  }
}

/// Post-flow flow-equivalence self-check (`--fe-check`): golden batches
/// from the pristine synchronous snapshot, desynchronized side on the event
/// engine until it has its captures (sim/stimulus.h), stored-value
/// sequences compared per batch.
void runFeCheck(ScopedPass& pass, const netlist::Module& sync_top,
                const netlist::Module& module,
                const liberty::Gatefile& gatefile,
                const DesyncOptions& options, DesyncResult& result) {
  const sim::bitsim::BitsimStats before = sim::bitsim::bitsimStats();

  sim::SyncStimulus st;
  st.clock_port = options.clock_port;
  st.reset_port = options.control.reset_port;
  st.reset_active_low = options.control.reset_active_low;
  st.half_period_ns = std::max(result.sync_min_period_ns, 0.1);
  st.cycles = options.fe.base_cycles;

  const liberty::BoundModule sync_bound(sync_top, gatefile);
  const std::vector<std::vector<sim::CaptureLog>> sync_batches =
      sim::goldenSyncBatches(sync_bound, st, options.fe.batches);

  const liberty::BoundModule desync_bound(module, gatefile);
  auto run_desync = [&](std::size_t b) {
    auto s = std::make_unique<sim::Simulator>(desync_bound);
    sim::SyncStimulus batch = st;
    batch.cycles = sim::feBatchCycles(st, b);
    sim::runDesyncStimulus(*s, batch, sync_batches[b]);
    return s;
  };
  result.fe.report = sim::checkFlowEquivalenceBatches(sync_batches, run_desync);
  result.fe.ran = true;
  if (result.substitution.ffs_replaced == 0) {
    result.flow.note(
        "fe: vector check is vacuous (no flip-flops were replaced; no "
        "capture sequences to compare)");
  }

  const sim::FlowEqBatchReport& fe = result.fe.report;
  pass.counter("batches", static_cast<std::int64_t>(fe.batches_run));
  pass.counter("elements", static_cast<std::int64_t>(fe.elements_compared));
  pass.counter("values", static_cast<std::int64_t>(fe.values_compared));
  pass.counter("mismatches", static_cast<std::int64_t>(fe.mismatches));
  pass.counter("equivalent", fe.equivalent ? 1 : 0);

  const sim::bitsim::BitsimStats after = sim::bitsim::bitsimStats();
  FlowReport::BitsimSection bs;
  bs.compiles = after.compiles - before.compiles;
  bs.compile_ms =
      static_cast<double>(after.compile_us - before.compile_us) / 1000.0;
  bs.levels = static_cast<std::int64_t>(after.levels);
  bs.lanes = static_cast<int>(sim::kLanes);
  bs.cycles = after.cycles - before.cycles;
  bs.lane_vectors = after.lane_vectors - before.lane_vectors;
  bs.eval_ms = static_cast<double>(after.eval_us - before.eval_us) / 1000.0;
  if (after.eval_us > before.eval_us) {
    bs.vectors_per_sec = static_cast<double>(bs.lane_vectors) /
                         (static_cast<double>(after.eval_us - before.eval_us) /
                          1e6);
  }
  if (bs.compiles > 0) result.flow.setBitsim(bs);
}

/// Post-flow symbolic route (`--fe-mode prove|both`): per-register
/// projection-equivalence miters over the pristine snapshot plus the
/// token-flow protocol admissibility check (sim/symfe).
void runFeProve(ScopedPass& pass, const netlist::Module& sync_top,
                const netlist::Module& module,
                const liberty::Gatefile& gatefile,
                const DesyncOptions& options, DesyncResult& result,
                const ProofCache* cache) {
  const liberty::BoundModule sync_bound(sync_top, gatefile);
  const liberty::BoundModule desync_bound(module, gatefile);

  sim::symfe::SymfeOptions so;
  so.clock_port = options.clock_port;
  so.max_conflicts = options.fe.prove_max_conflicts;
  so.controller = options.control.controller;
  sim::symfe::ProtocolInput pi;
  pi.n_groups = result.regions.n_groups;
  for (const auto& cells : result.regions.seq_cells) {
    pi.active.push_back(!cells.empty());
  }
  pi.preds = result.ddg.preds;
  so.protocol = std::move(pi);

  // --cache-dir: registers whose miter was proved before reuse the proof.
  if (cache != nullptr) so.proof_table = &cache->table();

  result.symfe.report = sim::symfe::proveFlowEquivalence(sync_bound,
                                                         desync_bound, so);
  result.symfe.ran = true;

  const sim::symfe::SymfeReport& rep = result.symfe.report;
  pass.counter("registers", static_cast<std::int64_t>(rep.registers.size()));
  pass.counter("proved", static_cast<std::int64_t>(rep.proved));
  pass.counter("refuted", static_cast<std::int64_t>(rep.refuted));
  pass.counter("skipped", static_cast<std::int64_t>(rep.skipped));
  pass.counter("restored", static_cast<std::int64_t>(rep.restored));
  pass.counter("conflicts", static_cast<std::int64_t>(rep.conflicts));
  pass.counter("decisions", static_cast<std::int64_t>(rep.decisions));
  pass.counter("protocol_admissible", rep.protocol.admissible ? 1 : 0);

  FlowReport::SymfeSection ss;
  ss.registers = static_cast<std::int64_t>(rep.registers.size());
  ss.proved = static_cast<std::int64_t>(rep.proved);
  ss.refuted = static_cast<std::int64_t>(rep.refuted);
  ss.skipped = static_cast<std::int64_t>(rep.skipped);
  ss.restored = static_cast<std::int64_t>(rep.restored);
  ss.conflicts = static_cast<std::int64_t>(rep.conflicts);
  ss.decisions = static_cast<std::int64_t>(rep.decisions);
  ss.protocol_states =
      static_cast<std::int64_t>(rep.protocol.states_explored);
  ss.protocol_admissible = rep.protocol.admissible;
  ss.comb_only = rep.comb_only;
  ss.ms = rep.total_ms;
  result.flow.setSymfe(ss);
}

}  // namespace

DesyncResult desynchronize(netlist::Design& design, netlist::Module& module,
                           const liberty::Gatefile& gatefile,
                           const DesyncOptions& options) {
  DesyncResult result;
  result.flow.setJobs(effectiveJobs());
  const PoolStats pool_before = threadPoolStats();

  // Pristine synchronous snapshot for the post-flow flow-equivalence check
  // (the flow mutates `module` in place); taken only when the check is on.
  netlist::Design sync_snapshot;
  const netlist::Module* sync_top = nullptr;
  const bool want_vector = options.fe.batches > 0 &&
                           options.fe.mode != FeMode::kProve;
  const bool want_prove = options.fe.mode != FeMode::kSim;
  if (want_vector || want_prove) {
    ScopedPass pass(result.flow, "sync_snapshot");
    sync_top = &netlist::snapshotModule(sync_snapshot, module);
  }

  // With a cache directory and the prover on, the proofs of the previous
  // run are loaded for fe_prove to reuse.
  const std::unique_ptr<ProofCache> cache =
      ProofCache::open(options, module.name(), result.flow);
  const double setup_ms = result.flow.totalMs();

  // The seven passes run in the paper's fixed order, then the FE checks.
  // A failure is rethrown as FlowError carrying the report so far
  // (~ScopedPass has already appended the failing pass's stat).
  const auto runPass = [&](const char* name, const auto& body) {
    try {
      ScopedPass pass(result.flow, name);
      body(pass);
    } catch (const FlowError&) {
      throw;
    } catch (const std::exception& e) {
      throw FlowError(name, result.flow, e.what());
    }
    tracePassBoundaryCounters(gatefile, cache.get());
  };

  // Reference periods of the synchronous circuit (before any mutation):
  // one STA per PVT corner, built concurrently over a shared binding.  The
  // typical corner (delay_scale 1.0) is the flow's reference period.
  runPass("reference_sta", [&](ScopedPass& pass) {
    const liberty::BoundModule bound(module, gatefile);
    const variability::Corner corners[] = {variability::Corner::kBest,
                                           variability::Corner::kTypical,
                                           variability::Corner::kWorst};
    std::vector<sta::StaOptions> corner_opts;
    for (variability::Corner c : corners) {
      sta::StaOptions so;
      so.delay_scale = variability::cornerSpec(c).delay_scale;
      corner_opts.push_back(std::move(so));
    }
    std::vector<double> task_ms(corner_opts.size(), 0.0);
    std::vector<std::unique_ptr<sta::Sta>> analyses(corner_opts.size());
    parallelFor(corner_opts.size(), [&](std::size_t i) {
      trace::Span span("sta_corner", "sta");
      const auto t0 = std::chrono::steady_clock::now();
      analyses[i] = std::make_unique<sta::Sta>(bound, corner_opts[i]);
      task_ms[i] = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    });
    for (std::size_t i = 0; i < analyses.size(); ++i) {
      const variability::CornerSpec spec = variability::cornerSpec(corners[i]);
      result.corner_periods.push_back(DesyncResult::CornerPeriod{
          spec.name, spec.delay_scale, analyses[i]->minPeriodNs()});
      pass.work(task_ms[i]);
    }
    result.sync_min_period_ns = result.corner_periods[1].min_period_ns;
    pass.counter("corners",
                 static_cast<std::int64_t>(result.corner_periods.size()));
    pass.counter("jobs", effectiveJobs());
    pass.counter("cells", static_cast<std::int64_t>(module.numCells()));
    pass.counter("nets", static_cast<std::int64_t>(module.numNets()));
  });

  // 1+2. Cleaning + region creation (automatic or designer-specified).
  runPass("region_grouping", [&](ScopedPass& pass) {
    if (options.manual_seq_groups.empty()) {
      result.regions = groupRegions(module, gatefile, options.grouping);
    } else {
      result.regions = groupRegionsBySeqPrefix(
          module, gatefile, options.manual_seq_groups, options.grouping);
    }
    pass.counter("regions", result.regions.n_groups);
    pass.counter("cells", static_cast<std::int64_t>(module.numCells()));
  });

  // 3. Flip-flop substitution (latch pairs + extra-latch glue).
  runPass("ff_substitution", [&](ScopedPass& pass) {
    result.substitution =
        substituteFlipFlops(module, gatefile, result.regions);
    pass.counter("ffs_replaced",
                 static_cast<std::int64_t>(result.substitution.ffs_replaced));
    pass.counter(
        "glue_cells",
        static_cast<std::int64_t>(result.substitution.glue_cells_added));
  });

  // 4. Data-dependency graph over the regions.
  runPass("dependency_graph", [&](ScopedPass& pass) {
    result.ddg = buildDependencyGraph(module, gatefile, result.regions);
    std::int64_t edges = 0;
    for (const auto& preds : result.ddg.preds) {
      edges += static_cast<std::int64_t>(preds.size());
    }
    pass.counter("edges", edges);
  });

  // 5a. Region timing: datapath re-buffering, delay-element stage
  // characterization and per-region critical paths (margin-free; the
  // margin is applied by the control network below).
  runPass("region_timing", [&](ScopedPass& pass) {
    result.timing = computeRegionTiming(module, gatefile, result.regions);
    pass.counter("regions", static_cast<std::int64_t>(
                                result.timing.required_delay_ns.size()));
    pass.counter("cells", static_cast<std::int64_t>(module.numCells()));
  });

  // 5b+6. Delay elements and control network.
  runPass("control_network", [&](ScopedPass& pass) {
    result.control = insertControlNetwork(
        design, module, gatefile, result.regions, result.ddg,
        result.substitution, result.timing, options.control);
    pass.counter("controllers",
                 static_cast<std::int64_t>(result.control.regions.size()));
    pass.counter("loop_cuts",
                 static_cast<std::int64_t>(result.control.loop_cuts.size()));
    pass.counter("cells", static_cast<std::int64_t>(module.numCells()));
    pass.counter("nets", static_cast<std::int64_t>(module.numNets()));
  });

  // 7. Backend constraints (thesis §4.5, Fig 4.2): the original clock
  // becomes two non-overlapping latch-enable clocks sourced at the
  // controllers' g drivers; the falling edge of the master coincides with
  // the rising edge of the slave at the original capture instant.
  runPass("sdc_generation", [&](ScopedPass& pass) {
    const double period = result.sync_min_period_ns;
    sta::SdcClock clk_m, clk_s;
    clk_m.name = "ClkM";
    clk_m.period_ns = period;
    clk_m.rise_at_ns = period * 5.0 / 12.0;
    clk_m.fall_at_ns = period;
    clk_m.targets_are_pins = true;
    clk_s.name = "ClkS";
    clk_s.period_ns = period;
    clk_s.rise_at_ns = period;
    clk_s.fall_at_ns = period * 7.0 / 6.0;
    clk_s.targets_are_pins = true;
    for (int g = 0; g < result.regions.n_groups; ++g) {
      auto gi = static_cast<std::size_t>(g);
      auto addTarget = [&](netlist::NetId en, sta::SdcClock& clock) {
        if (!en.valid()) return;
        const netlist::Net& n = module.net(en);
        if (!n.driver.isCellPin()) return;
        clock.targets.push_back(
            std::string(module.cellName(n.driver.cell())) + "/Z");
      };
      if (gi < result.substitution.master_enable.size()) {
        addTarget(result.substitution.master_enable[gi], clk_m);
        addTarget(result.substitution.slave_enable[gi], clk_s);
      }
    }
    if (!clk_m.targets.empty()) result.sdc.clocks.push_back(clk_m);
    if (!clk_s.targets.empty()) result.sdc.clocks.push_back(clk_s);
    result.sdc.disabled = result.control.loop_cuts;
    result.sdc.size_only = result.control.size_only_cells;
    pass.counter("clocks", static_cast<std::int64_t>(result.sdc.clocks.size()));
    pass.counter("disabled_arcs",
                 static_cast<std::int64_t>(result.sdc.disabled.size()));
  });

  const double passes_ms = result.flow.totalMs() - setup_ms;
  if (want_vector) {
    runPass("fe_check", [&](ScopedPass& pass) {
      runFeCheck(pass, *sync_top, module, gatefile, options, result);
    });
  }
  if (want_prove) {
    runPass("fe_prove", [&](ScopedPass& pass) {
      runFeProve(pass, *sync_top, module, gatefile, options, result,
                 cache.get());
    });
  }
  if (cache != nullptr) {
    cache->finish(result.symfe.report, result.flow, passes_ms);
    tracePassBoundaryCounters(gatefile, cache.get());
  }
  // Contention delta across the run: non-zero when another top-level
  // caller's parallel section serialized one of ours on the shared pool.
  // Thread-scoped, so the delta is exactly this run's waits even with
  // concurrent requests in flight.
  const PoolStats pool_after = threadPoolStats();
  if (pool_after.contended > pool_before.contended) {
    result.flow.setPoolContention(
        pool_after.contended - pool_before.contended,
        (pool_after.wait_us - pool_before.wait_us) / 1000.0);
  }
  return result;
}

}  // namespace desync::core
