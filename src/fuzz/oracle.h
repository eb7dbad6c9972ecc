// Differential end-to-end flow oracle.
//
// One oracle run takes a synchronous gate-level netlist (as Verilog text,
// the fuzzing pipeline's exchange format), pushes it through the complete
// seven-pass desynchronization flow and cross-checks every invariant the
// repo guarantees, in a fixed order (the run stops at the first failure, so
// a verdict's `check` name is stable and the shrinker can preserve it):
//
//   1. "parse"            — the input parses and passes checkInvariants()
//   2. "flow"             — desynchronize() completes without FlowError;
//                           it runs its own fe_check / fe_prove passes at
//                           `fe_mode`, and a throw in one of those is a
//                           "flow-equivalence" failure
//   3. "self-test"        — (fault injection only, see FaultKind::kSelfTest)
//   4. "flow-equivalence" — the flow's verdicts: the desynchronized circuit
//                           stores exactly the value sequences of the
//                           synchronous golden simulation (thesis §2.1),
//                           and/or every register's miter is proved; the
//                           vector route is vacuous when the flow replaced
//                           no FF (a design without storage has no flow to
//                           preserve)
//   5. "netlist"          — the converted module passes checkInvariants()
//                           and latch counts match the substitution report
//   6. "verilog-fixpoint" — write -> read -> write reaches a byte-stable
//                           fixpoint and preserves cell/port counts
//   7. "sta"              — generated SDC sanity: two positive-period
//                           ClkM/ClkS clocks with targets, non-negative
//                           sync slack at the reference period, finite
//                           positive critical path through the converted
//                           netlist with the SDC loop cuts applied; vacuous
//                           when the flow replaced no FF (no latch clocks
//                           are generated then)
//   8. "cache"            — the proof cache (docs/eco.md) reproduces
//                           uncached flows exactly, at `fe_mode`.  With
//                           the prover off, one cached run at --jobs 1
//                           matches check 2 (run at `restore_jobs`),
//                           writes no directory and notes that the cache
//                           was inert.  With it on, one
//                           directory is primed by a cold cached run at
//                           --jobs 1 (matches check 2), then at --jobs 4 a
//                           warm rerun loads the proof table (hits == 1), a
//                           margin +0.10 run matches an uncached flow at
//                           that margin — both re-prove no register, and
//                           their proof records equal fresh ones — and a
//                           seeded small edit (cell swap, constant tie or
//                           net rename) re-flows exactly as an uncached
//                           flow of the edited design: whole-design
//                           Verilog, SDC, per-register proof records
//                           (verdict, trivial, conflicts, decisions) and
//                           protocol verdict; either both fail or neither
//
// Fault injection (`drdesync-fuzz --fault`) deliberately mis-runs the flow
// so the detection and shrinking machinery can be exercised end to end on
// demand; `kNone` is the honest oracle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/desync.h"
#include "liberty/gatefile.h"

namespace desync::fuzz {

enum class FaultKind {
  kNone,            ///< honest oracle
  kFullyDecoupled,  ///< fully-decoupled controllers: legal handshake, but
                    ///< flow equivalence is lost on multi-region designs
                    ///< (Fig 2.4's extra concurrency)
  kShortMargin,     ///< matched delays far below the region critical path:
                    ///< data captured before it settled (Fig 5.3's dashed
                    ///< region)
  kSelfTest,        ///< machinery check: report failure whenever the
                    ///< converted design still holds a latch pair, before
                    ///< check 4 reads any FE verdict — monotone under
                    ///< shrinking, so the
                    ///< shrinker must converge to a minimal register
};

FaultKind parseFaultKind(const std::string& name);  ///< throws on unknown
std::string faultKindName(FaultKind kind);

struct OracleOptions {
  FaultKind fault = FaultKind::kNone;
  /// Synchronous clock cycles of check 4's one vector batch (the
  /// desynchronized version runs until it has the matching captures).
  int cycles = 16;
  /// Worker count restored after the run (0 = env/hardware default).
  int restore_jobs = 0;
  /// Scratch directory for check 8's proof cache; empty = system temp.
  /// The oracle creates and removes a per-run subdirectory inside it.
  std::string scratch_dir;
  /// Disables the (filesystem-touching) proof-cache check; the shrinker
  /// turns this off when the failure it preserves is an earlier check.
  bool check_cache = true;
  /// Seed of check 8's scripted edit — it picks the edit kind (cell swap,
  /// constant tie, net rename) and the edit site.  Recorded in reproducer
  /// headers so a replay applies the identical edit; kept fixed by the
  /// shrinker so the preserved failure stays the same edit.
  std::uint64_t eco_seed = 1;
  /// Flow-equivalence route for check 4 (`--fe-mode`): the sampling vector
  /// route, the symbolic per-register prover, or both.  The prover is
  /// never vacuous — designs without replaced FFs get combinational
  /// output-port miters instead of a skip — but it is timing-blind, so the
  /// short-margin fault is only caught by the vector route.  Check 8
  /// also runs at this mode, so a prove run exercises proof reuse.
  core::FeMode fe_mode = core::FeMode::kSim;
};

struct OracleVerdict {
  bool ok = true;
  std::string check;   ///< failing check name ("" when ok)
  std::string detail;  ///< first failure description
  /// Diagnostic note on a passing run (e.g. vector FE check was vacuous).
  std::string note;
  /// True when the vector FE check had nothing to compare (no FF
  /// replaced).  Reported instead of silently passing.
  bool fe_vacuous = false;
  // Design facts, for logs and shrink metrics.
  std::size_t cells = 0;        ///< synchronous input cell count
  std::size_t ffs_replaced = 0;
  int regions = 0;
  std::size_t values_compared = 0;
  std::size_t registers_proved = 0;  ///< prove route: miters proved UNSAT
  /// Check 8's applied edit, for logs ("" when no edit ran).
  std::string eco_edit;
};

/// Runs the full oracle on one synchronous netlist.  Deterministic: the
/// same text + options always produce the same verdict.
OracleVerdict runOracle(const std::string& verilog,
                        const liberty::Gatefile& gatefile,
                        const OracleOptions& options = {});

}  // namespace desync::fuzz
