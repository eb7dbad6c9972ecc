// Incremental ECO recompute (docs/eco.md).
//
// An engineering change order touches a handful of cells; re-running the
// whole flow repays none of the work already done for the untouched 99 %.
// The ECO layer makes warm `drdesync --cache-dir` runs pay only for what
// the edit actually dirtied (an identical rerun or an option-only change
// dirties nothing):
//
//  * The input netlist is diffed against per-object record hashes stored
//    from the previous run (no netlist snapshot is kept — only 16 bytes
//    per cell/net/port).  The changed records seed two forward closures
//    over the combinational fan-out, both stopping at sequential
//    boundaries.  The *functional* closure starts from changed nets,
//    ports and the changed cells' output nets; every sequential cell it
//    reaches (through any pin) is a dirty endpoint whose timing and
//    next-state function the edit can reach.  The *timing-only* closure
//    additionally starts from the changed cells' input nets — a cell
//    changed in place changes its input pin caps, so the loads of its
//    input nets and the arrival of every sibling sink move — but it only
//    dirties sequential sinks through timing-endpoint pins (data, scan,
//    sync), so a changed register does not functionally dirty every
//    register sharing its clock net.
//  * reference_sta re-analyzes only the backward cone of the dirty
//    endpoints (a net mask handed to sta::Sta); clean endpoints restore
//    their stored per-corner contributions, and the merged per-endpoint
//    max reproduces the full run's minimum period bit for bit.
//  * region_timing keeps one table: the worst arrival+setup at each
//    master latch, keyed by the original register's name.  A latch is
//    clean exactly when neither closure reached its register and the
//    previous run stored its worst.  A region's requirement is the max
//    over its member latches' worsts — a region's obligation is the
//    composition of its registers' (arXiv 2004.10655) — so a region whose
//    members are all clean restores it outright, whichever region those
//    registers belonged to last run, and a dirty region re-times only its
//    dirty latches' cones under a mask, merging the stored worsts of its
//    clean members.
//  * fe_prove restores the stored per-register proofs of clean registers
//    (their cones are untouched, so the verdicts still hold) and re-proves
//    only the dirty ones.  The protocol admissibility check always runs.
//
// Everything mutating the netlist (substitution, buffering, control
// network, SDC) re-runs unconditionally, so a warm ECO run writes
// byte-identical Verilog and SDC to a cold run on the same edited design.
// The tables live in one FlowDB slot per design, guarded by a
// configuration key (tool version, library, grouping options, controller
// and reset wiring, FE mode and prover budget — not the delay-element
// sizing knobs); any mismatch or parse failure degrades to a cold run with
// a note, never an error.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/desync.h"
#include "flowdb/cache.h"
#include "liberty/gatefile.h"
#include "netlist/netlist.h"
#include "sim/symfe/symfe.h"
#include "sta/sta.h"
#include "util/hash.h"

namespace desync::core {

/// One flow run's incremental-recompute state: loads the previous run's
/// tables, diffs the input module, and serves restore queries to the
/// passes.  Opened by desynchronize() before any pass runs (the module
/// must still be the unmodified input); finish() stores the updated tables
/// after the FE passes complete.
class EcoContext {
 public:
  /// Fixed corner count of the reference STA (best/typical/worst).
  static constexpr std::size_t kCorners = 3;

  /// Opens the cache directory, loads the design's slot, checks its guard
  /// (the configuration key), digests `module` and, when warm, computes
  /// the dirty-endpoint closure.  nullptr when options.flowdb.cache_dir is
  /// empty, or when the directory cannot be opened ("flowdb disabled"
  /// note).  Diagnostics go to `flow` notes; the diff runs under an
  /// "eco_diff" trace span.
  static std::unique_ptr<EcoContext> open(const DesyncOptions& options,
                                          const netlist::Module& module,
                                          const liberty::Gatefile& gatefile,
                                          FlowReport& flow);

  /// Tables loaded, guard matched and the edit small enough to bound: the
  /// restore queries below may return stored results.  False = cold ECO
  /// run (everything recomputes, tables are still stored at finish()).
  [[nodiscard]] bool warm() const { return warm_; }

  /// This run's cache traffic so far (pass-boundary trace counters).
  [[nodiscard]] const flowdb::CacheStats& cacheStats() const {
    return cache_->stats();
  }

  // --- reference_sta ------------------------------------------------------

  /// Backward-closed net mask covering the dirty endpoints' input cones on
  /// the input module; nullptr when the full analysis must run (cold, or
  /// everything dirty).  Valid until the module is mutated.
  [[nodiscard]] const std::vector<std::uint8_t>* refstaMask() const;

  /// Disables the stored reference-STA table for this run (called when the
  /// masked analysis had to break loops, so its arrivals are not
  /// comparable); referencePeriods() then uses the recomputed-only merge.
  void dropStoredRefsta() { refsta_stored_usable_ = false; }

  /// Merges stored clean-endpoint contributions with the (masked or full)
  /// recomputed ones and returns the per-corner minimum periods,
  /// bit-identical to Sta::minPeriodNs() of an unmasked run.  `analyses`
  /// must be the kCorners corner analyses in index order.
  std::vector<double> referencePeriods(
      const netlist::Module& module,
      const std::vector<std::unique_ptr<sta::Sta>>& analyses);

  // --- region_timing ------------------------------------------------------

  struct RegionTimingOutcome {
    RegionTiming timing;
    std::int64_t dirty = 0;
    std::int64_t restored = 0;
  };

  /// ECO-aware replacement for computeRegionTiming(): always re-inserts
  /// buffer trees (output mutation) and characterizes the delay stage,
  /// then runs a masked STA over the dirty latches' cones only and takes
  /// each region's requirement as the max over its member latches'
  /// worsts, recomputed or stored.  Cold runs compute everything.
  RegionTimingOutcome regionTiming(netlist::Module& module,
                                   const liberty::Gatefile& gatefile,
                                   const Regions& regions);

  // --- fe_prove -----------------------------------------------------------

  /// Stored kProved verdicts of registers that are not dirty and still
  /// exist; handed to SymfeOptions::restored_proofs.  Empty when cold.
  [[nodiscard]] const std::unordered_map<std::string, sim::symfe::RestoredProof>&
  restoredProofs() const {
    return restorable_proofs_;
  }

  /// Records this run's proof results for the next run's tables (call
  /// with the final SymfeReport, restored proofs included).
  void recordSymfe(const sim::symfe::SymfeReport& report);

  // ------------------------------------------------------------------------

  /// Stores the updated tables into the cache slot, then publishes the
  /// "eco" report section and the FlowCacheStats (`compute_ms`: the flow
  /// passes' wall time).  Call once, after the FE passes.
  void finish(FlowReport& flow, double compute_ms);

 private:
  EcoContext(std::unique_ptr<flowdb::PassCache> cache,
             const netlist::Module& module, const liberty::Gatefile& gatefile,
             const util::CacheKey& guard, FlowReport& flow);

  void loadTables(FlowReport& flow);
  void diffAndClose(FlowReport& flow);
  [[nodiscard]] bool endpointLive(const netlist::Module& module,
                                  const std::string& name) const;
  /// True when `name`'s timing can differ from the stored run (member of
  /// either closure); symfe restores consult dirty_endpoints_ alone.
  [[nodiscard]] bool timingDirty(const std::string& name) const {
    return dirty_endpoints_.count(name) != 0 || timing_dirty_.count(name) != 0;
  }

  /// One diffed object: FNV-64 of the name (the diff key), the record
  /// digest, and — for cells — the FNV-64 of the type name (seeds the
  /// load-coupling closure; zero for nets and ports).
  struct ObjectDigest {
    std::uint64_t key = 0;
    std::uint64_t rec = 0;
    std::uint64_t type = 0;
  };

  std::unique_ptr<flowdb::PassCache> cache_;
  const netlist::Module& input_module_;
  const liberty::Gatefile& gatefile_;
  util::CacheKey guard_;
  std::string slot_name_;
  bool warm_ = false;
  bool refsta_stored_usable_ = true;
  double open_ms_ = 0.0;  ///< load + diff time (FlowCacheStats::restore_ms)

  // Previous run's tables (loaded; digest arrays are sorted by key for
  // binary-search lookup and dropped after the diff).
  std::vector<ObjectDigest> stored_cells_;
  std::vector<ObjectDigest> stored_nets_;
  std::vector<ObjectDigest> stored_ports_;
  std::unordered_map<std::string, std::array<double, kCorners>> stored_refsta_;
  std::unordered_map<std::string, double> stored_latches_;
  std::unordered_map<std::string, sim::symfe::RestoredProof> stored_symfe_;

  // This run's digests of the input module (stored at finish(), in module
  // iteration order).  Cells additionally carry a type hash: a cell
  // changed *in place with a new type* changes its input pin caps (a load
  // effect no net record sees), while binding changes always dirty the
  // affected nets' own records.
  std::vector<ObjectDigest> cell_digests_;
  std::vector<ObjectDigest> net_digests_;
  std::vector<ObjectDigest> port_digests_;

  // Diff products (warm runs only).  `dirty_endpoints_` is the functional
  // closure (timing + next-state function affected); `timing_dirty_` holds
  // the endpoints the load-coupling closure additionally reaches (timing
  // affected, function untouched — their symfe proofs still restore).
  std::unordered_set<std::string> dirty_endpoints_;
  std::unordered_set<std::string> timing_dirty_;
  std::vector<std::uint8_t> refsta_mask_;
  std::unordered_map<std::string, sim::symfe::RestoredProof>
      restorable_proofs_;

  // This run's table contents, accumulated by the restore queries.
  bool new_refsta_broken_ = false;  ///< arrivals depend on loop cuts
  std::unordered_map<std::string, std::array<double, kCorners>> new_refsta_;
  std::unordered_map<std::string, double> new_latches_;
  std::unordered_map<std::string, sim::symfe::RestoredProof> new_symfe_;

  FlowReport::EcoSection stats_;
};

}  // namespace desync::core
