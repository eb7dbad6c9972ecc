// FlowDB integration of the desynchronization flow.
//
// A FlowSession wraps one desynchronize() run.  Passes are *registered*
// first (addPass) and executed by run(), in registration order.  With a
// cache directory, run() first constructs an EcoContext (core/eco.h) that
// diffs the input against the per-object record tables the previous run
// of the same design stored, and the pass bodies ask it for region-level
// restores: every pass executes, the incrementality lives *inside* the
// passes, which skip the analysis work for clean regions and registers.
// An identical rerun or an option-only change (margin, mux taps) restores
// every region and every proof; an edit re-analyzes only its dirty cones.
//
// The tables are guarded by a configuration key: the tool version, the
// library binding and, per pass, the options the stored analyses depend
// on (hashed by each pass's fingerprint), plus the FE mode.  Any mismatch
// makes the stored tables unreachable — a cold run with a note — instead
// of subtly stale.  --jobs never enters the key: the flow is deterministic
// across worker counts, so restored results are byte-identical to
// computed ones at any --jobs.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/desync.h"
#include "flowdb/cache.h"
#include "util/hash.h"

namespace desync::core {

class EcoContext;

/// One desynchronize() run's view of the FlowDB cache.  With an empty
/// cache_dir the session is inert: run() just times and runs the bodies.
class FlowSession {
 public:
  FlowSession(netlist::Module& module, const liberty::Gatefile& gatefile,
              const DesyncOptions& options, DesyncResult& result);
  ~FlowSession();  // out of line: EcoContext is incomplete here

  /// Registers a pass: `name`, the guard `fingerprint` (options the
  /// stored tables depend on; may be null) and the `body` that computes
  /// it.  The body runs inside run(), in registration order.
  void addPass(const char* name,
               const std::function<void(util::KeyHasher&)>& fingerprint,
               const std::function<void(ScopedPass&)>& body);

  /// Executes the registered pipeline, loading and diffing the ECO tables
  /// first when a cache directory is set.  Exceptions from a body are
  /// rethrown as FlowError carrying the partial FlowReport.
  void run();

  /// The incremental-recompute context; nullptr without a cache directory
  /// (or before run()).  Pass bodies use it for region keys and restore
  /// queries.
  [[nodiscard]] EcoContext* eco() { return eco_.get(); }

  /// Stores the updated ECO tables, then publishes the "eco" report
  /// section and FlowCacheStats; call after the flow-equivalence checks.
  /// No-op without a cache directory.
  void finish();

 private:
  struct Pass {
    const char* name;
    std::function<void(ScopedPass&)> body;
  };

  void computePass(const Pass& pass);

  netlist::Module& module_;
  const liberty::Gatefile& gatefile_;
  const DesyncOptions& options_;
  DesyncResult& result_;

  std::vector<Pass> passes_;
  std::unique_ptr<flowdb::PassCache> cache_;
  std::unique_ptr<EcoContext> eco_;
  util::KeyHasher guard_;
  double restore_ms_ = 0.0;
  double compute_ms_ = 0.0;
};

}  // namespace desync::core
