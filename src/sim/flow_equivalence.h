// Flow-equivalence checking (thesis §2.1).
//
// Desynchronization preserves flow-equivalence: every sequential element of
// the desynchronized circuit stores exactly the same value sequence as its
// synchronous counterpart.  This checker compares the capture logs recorded
// by two simulations: the synchronous flip-flop's stored sequence against
// the corresponding slave latch's stored sequence in the desynchronized
// version.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace desync::sim {

struct FlowEqReport {
  bool equivalent = true;
  std::size_t elements_compared = 0;
  std::size_t values_compared = 0;
  std::size_t mismatches = 0;
  std::size_t skipped = 0;          ///< sync elements without a counterpart
  std::vector<std::string> details;  ///< first few mismatch descriptions
};

/// Minimum number of common captures an element must have for the
/// comparison to count (shorter logs are reported as skipped).
inline constexpr std::size_t kFlowEqMinCommon = 2;
/// Mismatch descriptions kept per report (FlowEqReport::details).
inline constexpr std::size_t kFlowEqMaxDetails = 8;

struct FlowEqOptions {
  /// Ignore leading X captures (before reset propagated).
  bool skip_leading_x = true;
  /// The desynchronized side may record extra reset-epoch captures: latches
  /// with asynchronous controls are forced transparent during reset
  /// (Fig 3.1c) and log the reset value when the forcing releases.  Up to
  /// this many leading desync captures may be skipped to align the
  /// sequences; the remainder must then match exactly.
  std::size_t max_initial_skip = 2;
};

/// Name of the desynchronized counterpart of synchronous flip-flop
/// `element`: its slave latch, `element` + "_Ls" (drdesync's naming).
std::string mappedElementName(const std::string& element);

/// Index of the first capture the comparison uses: past the leading X
/// captures when `options.skip_leading_x` is set, else 0.
std::size_t firstKnownCapture(const std::vector<Val>& values,
                              const FlowEqOptions& options);

/// Compares the stored-value sequences of every sequential element of
/// `sync_sim` against the mapped element of `desync_sim`.
FlowEqReport checkFlowEquivalence(const Simulator& sync_sim,
                                  const Simulator& desync_sim,
                                  const FlowEqOptions& options = {});

/// Engine-independent variant: the synchronous side is a list of capture
/// logs, whichever engine produced them (the event-driven Simulator or the
/// bit-parallel sim/bitsim engine — see sim/stimulus.h's goldenSyncBatches).
/// The (Simulator, Simulator) overload delegates here.
FlowEqReport checkFlowEquivalence(const std::vector<CaptureLog>& sync_logs,
                                  const Simulator& desync_sim,
                                  const FlowEqOptions& options = {});

// --- batched checking over partitioned input-vector sets -----------------
//
// Large flow-equivalence campaigns split the stimulus into independent
// vector batches (different input vectors, windows or delay selections per
// batch).  Each batch gets its own per-worker simulator instances, so the
// batches run concurrently on the parallel layer (core/parallel.h) while
// the merged verdict stays byte-identical to a serial run: per-batch
// reports are collected index-aligned and reduced in batch order.

/// Builds *and runs* the simulation for one batch: the factory derives the
/// batch's stimulus deterministically from the batch index alone (vectors,
/// window length, calibration selection, ...) and returns the finished
/// simulator, whose capture logs are then compared.
using SimFactory =
    std::function<std::unique_ptr<Simulator>(std::size_t batch)>;

struct FlowEqBatchReport {
  bool equivalent = true;             ///< AND over all batches
  std::size_t batches_run = 0;
  std::size_t elements_compared = 0;  ///< summed over batches
  std::size_t values_compared = 0;
  std::size_t mismatches = 0;
  std::vector<FlowEqReport> per_batch;  ///< index-aligned with batches
};

/// Runs `n_batches` independent sync/desync simulation pairs and checks
/// flow equivalence per batch.  Both factories are invoked concurrently
/// from pool workers and must only read shared state (const netlist,
/// gatefile, binding).
FlowEqBatchReport checkFlowEquivalenceBatches(
    std::size_t n_batches, const SimFactory& run_sync,
    const SimFactory& run_desync, const FlowEqOptions& options = {});

/// Variant with one shared golden synchronous run: the stored-value
/// sequences of the synchronous circuit do not depend on delays, so a
/// single capture log can serve every batch (e.g. Fig 5.3's per-corner
/// sweeps).  `golden_sync` is read concurrently and must outlive the call.
FlowEqBatchReport checkFlowEquivalenceBatches(
    const Simulator& golden_sync, std::size_t n_batches,
    const SimFactory& run_desync, const FlowEqOptions& options = {});

/// Variant over precomputed per-batch golden capture logs (one entry per
/// batch; sim/stimulus.h's goldenSyncBatches produces them, 64 batches per
/// bit-parallel pass).  Only the desynchronized/timed side still
/// event-simulates, concurrently on the parallel layer.  `sync_batches` is
/// read concurrently and must outlive the call.
FlowEqBatchReport checkFlowEquivalenceBatches(
    const std::vector<std::vector<CaptureLog>>& sync_batches,
    const SimFactory& run_desync, const FlowEqOptions& options = {});

}  // namespace desync::sim
