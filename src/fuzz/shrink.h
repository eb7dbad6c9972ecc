// Delta-debugging reducer for failing oracle inputs.
//
// Given a synchronous netlist on which the oracle (fuzz/oracle.h) reports a
// failure, the shrinker searches for a smaller netlist that fails the SAME
// check.  Because the oracle stops at the first failing check of a fixed
// order, "same check name" is a stable predicate and the reduction cannot
// drift onto an unrelated bug.
//
// The reduction is ddmin-flavoured and purely structural, operating on the
// Verilog text (the corpus exchange format) via parse -> mutate -> sweep ->
// write round trips:
//
//   * tie0 chunks    — remove a run of cells, re-pointing every net they
//                      drove at constant zero (shrinks registers, narrows
//                      buses bit by bit and deletes whole pipeline stages);
//                      chunk size halves from n/2 down to single cells
//   * bypass         — remove one cell, short-circuiting its output net to
//                      its first connected input net (collapses expression
//                      trees without losing the through-path)
//   * dead sweep     — after every mutation, cells whose outputs nobody
//                      reads (and orphaned nets) are deleted to a fixpoint
//
// Every candidate is re-judged with the full oracle; a candidate is kept
// only when its failing check name matches the original.  The whole search
// is deterministic: same input text + options => same reproducer.
#pragma once

#include <string>

#include "fuzz/oracle.h"
#include "liberty/gatefile.h"

namespace desync::fuzz {

struct ShrinkOptions {
  /// Hard cap on oracle evaluations (the expensive step).
  int max_evals = 400;
  /// Oracle configuration the failure was observed under.  The shrinker
  /// disables the proof-cache check automatically unless the preserved
  /// failure IS the "cache" check.
  OracleOptions oracle;
};

struct ShrinkResult {
  std::string verilog;     ///< smallest failing netlist found
  std::string check;       ///< preserved failing check name
  std::string detail;      ///< failure detail on the final reproducer
  std::size_t initial_cells = 0;
  std::size_t final_cells = 0;
  int evals = 0;           ///< oracle evaluations spent
  bool failing = false;    ///< false when the input already passed
};

/// Reduces `verilog` while preserving its failing oracle check.  When the
/// input passes the oracle, returns it unchanged with failing == false.
ShrinkResult shrink(const std::string& verilog,
                    const liberty::Gatefile& gatefile,
                    const ShrinkOptions& options = {});

}  // namespace desync::fuzz
