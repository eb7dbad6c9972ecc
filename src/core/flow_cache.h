// FlowDB integration of the desynchronization flow.
//
// A FlowSession wraps one desynchronize() run.  It maintains the chained
// content-address of the flow state: the base key hashes the snapshot
// format version, the tool version, the library fingerprint and the input
// design snapshot; each pass then extends the chain with its name and the
// fingerprint of the options it actually depends on.  Because the pipeline
// is deterministic, "same chain key" == "same state after this pass", so a
// cache entry stored under the key of pass i can be restored verbatim.
//
// Passes are *registered* first (addPass) and executed by run().  The key
// chain is a pure function of the input + options — no entry has to be
// read to compute it — so run() derives every pass key up front, probes
// the cache (and the --resume checkpoint) deepest-first for the latest
// restorable state, applies that single entry, and computes only the
// passes after it.  A warm run therefore reads exactly one entry no
// matter how long the restored prefix is, and a corrupt entry simply
// makes the probe fall back to the next-shallower candidate (ultimately a
// cold run), with a diagnostic note in the report.
//
// --jobs never enters any key, and restored results are byte-identical to
// computed ones, preserving the flow's determinism guarantee.  After
// every computed pass run() stores a cache entry *and* overwrites the
// checkpoint slot, so an interrupted run restarts from its last completed
// pass via `--resume`.
//
// In --eco mode (FlowDbOptions::eco) the whole-design machinery above is
// bypassed: the base key carries configuration only (no input snapshot),
// no entries or checkpoints are probed or stored, and run() instead
// constructs an EcoContext (core/eco.h) that diffs the input against
// per-object record tables and serves region-level restores to the pass
// bodies.  Every pass executes — the incrementality lives *inside* the
// passes, which skip the analysis work for clean regions.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/desync.h"
#include "flowdb/cache.h"
#include "util/hash.h"

namespace desync::core {

class EcoContext;

/// Encodes every DesyncResult field except `flow` as a FlowDB byte blob.
[[nodiscard]] std::string encodeResult(const DesyncResult& result);
/// Inverse of encodeResult; throws flowdb::FlowDbError on malformed input.
void decodeResult(std::string_view blob, DesyncResult& result);

/// One desynchronize() run's view of the FlowDB cache.  With an empty
/// cache_dir the session is inert: run() just times and runs the bodies.
class FlowSession {
 public:
  FlowSession(netlist::Design& design, netlist::Module& module,
              const liberty::Gatefile& gatefile, const DesyncOptions& options,
              DesyncResult& result);
  ~FlowSession();  // out of line: EcoContext is incomplete here

  /// Registers a pass: `name`, the key-chain `fingerprint` (options the
  /// pass depends on; may be null) and the `body` that computes it.  The
  /// body runs inside run(), in registration order.
  void addPass(const char* name,
               const std::function<void(util::KeyHasher&)>& fingerprint,
               const std::function<void(ScopedPass&)>& body);

  /// Executes the registered pipeline: restores the deepest cached state,
  /// computes the remaining passes, publishes FlowCacheStats.  Exceptions
  /// from a body are rethrown as FlowError carrying the partial
  /// FlowReport.
  void run();

  /// The incremental-recompute context of an --eco run; nullptr otherwise
  /// (plain runs, no cache directory, or run() not yet entered).  Pass
  /// bodies use it for region keys and restore queries.
  [[nodiscard]] EcoContext* eco() { return eco_.get(); }

  /// Stores the updated ECO tables and publishes the "eco" report section;
  /// call after the flow-equivalence checks.  No-op outside --eco mode.
  void ecoFinish();

 private:
  struct Pass {
    const char* name;
    std::function<void(ScopedPass&)> body;
    util::CacheKey key;
  };

  /// Deepest-first probe for a restorable state; returns the index of the
  /// restored pass (-1 = none) and leaves its entry in pending_entry_.
  [[nodiscard]] int findRestorePoint();
  void applyPending(const char* pass);
  void computePass(const Pass& pass, std::uint32_t index);
  [[nodiscard]] bool cacheActive() const { return cache_ != nullptr; }

  netlist::Design& design_;
  netlist::Module& module_;
  const liberty::Gatefile& gatefile_;
  const DesyncOptions& options_;
  DesyncResult& result_;

  std::vector<Pass> passes_;
  std::unique_ptr<flowdb::PassCache> cache_;
  bool eco_mode_ = false;
  std::unique_ptr<EcoContext> eco_;
  util::CacheKey key_;
  std::uint64_t library_fingerprint_ = 0;
  std::optional<std::string> pending_entry_;
  std::optional<flowdb::PassCache::Checkpoint> checkpoint_;
  std::string restore_source_;
  double restore_ms_ = 0.0;
  double compute_ms_ = 0.0;
};

}  // namespace desync::core
