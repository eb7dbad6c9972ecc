#include "sim/flow_equivalence.h"

#include <algorithm>

#include "core/parallel.h"
#include "trace/trace.h"

namespace desync::sim {

std::string mappedElementName(const std::string& element,
                              const FlowEqOptions& options) {
  return options.map_name ? options.map_name(element) : element + "_Ls";
}

std::size_t firstKnownCapture(const std::vector<Val>& values,
                              const FlowEqOptions& options) {
  std::size_t i = 0;
  if (options.skip_leading_x) {
    while (i < values.size() && values[i] == Val::kX) ++i;
  }
  return i;
}

FlowEqReport checkFlowEquivalence(const Simulator& sync_sim,
                                  const Simulator& desync_sim,
                                  const FlowEqOptions& options) {
  return checkFlowEquivalence(sync_sim.captures(), desync_sim, options);
}

FlowEqReport checkFlowEquivalence(const std::vector<CaptureLog>& sync_logs,
                                  const Simulator& desync_sim,
                                  const FlowEqOptions& options) {
  FlowEqReport report;
  for (const CaptureLog& sync_log : sync_logs) {
    const CaptureLog* desync_log =
        desync_sim.captureOf(mappedElementName(sync_log.element, options));
    if (desync_log == nullptr) {
      ++report.skipped;
      continue;
    }
    // Strip leading X captures on both sides (pre-reset garbage).
    std::size_t si = firstKnownCapture(sync_log.values, options);
    const std::size_t di0 = firstKnownCapture(desync_log->values, options);
    if (std::min(sync_log.values.size() - si,
                 desync_log->values.size() - di0) < options.min_common) {
      ++report.skipped;
      continue;
    }
    ++report.elements_compared;

    // Try alignments: the desync side may lead with reset-epoch captures.
    auto mismatchesAt = [&](std::size_t di, std::size_t* compared) {
      const std::size_t common = std::min(sync_log.values.size() - si,
                                          desync_log->values.size() - di);
      std::size_t bad = 0;
      for (std::size_t k = 0; k < common; ++k) {
        if (sync_log.values[si + k] != desync_log->values[di + k]) ++bad;
      }
      *compared = common;
      return bad;
    };
    std::size_t best_di = di0, best_bad = ~std::size_t{0}, best_common = 0;
    for (std::size_t skip = 0; skip <= options.max_initial_skip; ++skip) {
      const std::size_t di = di0 + skip;
      if (di >= desync_log->values.size()) break;
      std::size_t common = 0;
      std::size_t bad = mismatchesAt(di, &common);
      if (common < options.min_common) break;
      if (bad < best_bad) {
        best_bad = bad;
        best_di = di;
        best_common = common;
      }
      if (bad == 0) break;
    }

    report.values_compared += best_common;
    if (best_bad != 0) {
      report.mismatches += best_bad;
      report.equivalent = false;
      const std::size_t common = best_common;
      for (std::size_t k = 0; k < common; ++k) {
        Val a = sync_log.values[si + k];
        Val b = desync_log->values[best_di + k];
        if (a != b && report.details.size() < options.max_details) {
          report.details.push_back(
              sync_log.element + " capture #" + std::to_string(k) +
              ": sync=" + toChar(a) + " desync=" + toChar(b));
        }
      }
    }
  }
  if (report.elements_compared == 0) {
    report.equivalent = false;
    report.details.push_back("no comparable sequential elements");
  }
  return report;
}

namespace {

/// Index-order reduction of per-batch reports (deterministic regardless of
/// the schedule that produced them).
FlowEqBatchReport mergeBatches(std::vector<FlowEqReport> per_batch) {
  FlowEqBatchReport merged;
  merged.batches_run = per_batch.size();
  for (const FlowEqReport& r : per_batch) {
    merged.equivalent = merged.equivalent && r.equivalent;
    merged.elements_compared += r.elements_compared;
    merged.values_compared += r.values_compared;
    merged.mismatches += r.mismatches;
  }
  merged.per_batch = std::move(per_batch);
  return merged;
}

}  // namespace

FlowEqBatchReport checkFlowEquivalenceBatches(std::size_t n_batches,
                                              const SimFactory& run_sync,
                                              const SimFactory& run_desync,
                                              const FlowEqOptions& options) {
  return mergeBatches(core::parallelMap(n_batches, [&](std::size_t b) {
    trace::Span span("fe_batch", "sim");
    const std::unique_ptr<Simulator> sync_sim = run_sync(b);
    const std::unique_ptr<Simulator> desync_sim = run_desync(b);
    return checkFlowEquivalence(*sync_sim, *desync_sim, options);
  }));
}

FlowEqBatchReport checkFlowEquivalenceBatches(const Simulator& golden_sync,
                                              std::size_t n_batches,
                                              const SimFactory& run_desync,
                                              const FlowEqOptions& options) {
  return mergeBatches(core::parallelMap(n_batches, [&](std::size_t b) {
    trace::Span span("fe_batch", "sim");
    const std::unique_ptr<Simulator> desync_sim = run_desync(b);
    return checkFlowEquivalence(golden_sync, *desync_sim, options);
  }));
}

FlowEqBatchReport checkFlowEquivalenceBatches(
    const std::vector<std::vector<CaptureLog>>& sync_batches,
    const SimFactory& run_desync, const FlowEqOptions& options) {
  return mergeBatches(
      core::parallelMap(sync_batches.size(), [&](std::size_t b) {
        trace::Span span("fe_batch", "sim");
        const std::unique_ptr<Simulator> desync_sim = run_desync(b);
        return checkFlowEquivalence(sync_batches[b], *desync_sim, options);
      }));
}

}  // namespace desync::sim
