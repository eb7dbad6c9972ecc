// Content-addressed proof cache (docs/eco.md).
//
// An engineering change order touches a handful of cells, and the only
// expensive work a rerun can skip is proving flow equivalence: the seven
// passes and the outputs always recompute.  A register's verdict depends
// only on its own miter (Paykin et al., arXiv 2004.10655), so the prover
// keys each miter by a hash of exactly what it reads (sim/symfe/
// proof_key.h) and a `drdesync --cache-dir` run reuses the stored proof of
// every key it has seen before.  Equal keys mean identical miter CNF, so
// a reused proof is exactly what a fresh one would report — no edit
// analysis, no closure, nothing for a caller to vouch for.  An identical
// rerun, a margin or mux-tap change and a controller change re-prove
// nothing whose miter stayed the same; an edit re-proves exactly the
// registers whose miters it changed.
//
// The table lives in one FlowDB slot per design, stamped with the design's
// name (sanitized slot names can collide).  Without the prover
// (`--fe-mode sim`) there is nothing to cache: the directory is neither
// read nor written, and the run says so in one note.  A missing, damaged
// or older-format slot only means more proofs run — cold, never wrong.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "core/desync.h"
#include "flowdb/cache.h"
#include "sim/symfe/symfe.h"

namespace desync::core {

class ProofCache {
 public:
  /// Loads the design's proof table under an "eco_load" report entry.
  /// nullptr, with a note, when the prover is off or the directory cannot
  /// be opened ("flowdb disabled"); nullptr without a note when
  /// options.flowdb.cache_dir is empty.
  static std::unique_ptr<ProofCache> open(const DesyncOptions& options,
                                          std::string_view module_name,
                                          FlowReport& flow);

  /// The loaded proofs, for SymfeOptions::proof_table (empty when cold).
  [[nodiscard]] const sim::symfe::ProofTable& table() const {
    return table_;
  }

  /// This run's cache traffic so far (pass-boundary trace counters).
  [[nodiscard]] const flowdb::CacheStats& cacheStats() const {
    return cache_->stats();
  }

  /// Stores this run's keyed proofs under an "eco_store" report entry,
  /// then publishes the "eco" report section and the FlowCacheStats
  /// (`compute_ms`: the seven passes' wall time).  Call once, after the
  /// fe_prove pass.
  void finish(const sim::symfe::SymfeReport& report, FlowReport& flow,
              double compute_ms);

 private:
  ProofCache(std::unique_ptr<flowdb::PassCache> cache,
             std::string_view module_name);
  void load(FlowReport& flow);

  std::unique_ptr<flowdb::PassCache> cache_;
  std::string module_name_;  ///< the design the slot belongs to
  std::string slot_name_;
  bool warm_ = false;  ///< a valid table was loaded
  double load_ms_ = 0.0;
  sim::symfe::ProofTable table_;
};

}  // namespace desync::core
