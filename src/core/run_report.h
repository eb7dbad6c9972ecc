// `drdesync --report` JSON assembly.
//
// Two shapes, both stamped with the tool version and the FlowDB cache
// format version (the identities that also gate cache reuse):
//   - runReport: the full report of a successful run — design totals,
//     per-region delay elements, per-corner reference periods and the
//     nested FlowReport (per-pass timings and cache traffic);
//   - errorReport: the partial report of a failed run — an "error"
//     message, the "failed_pass" name, how long that pass ran before the
//     failure ("failed_pass_ms"), the innermost trace span the exception
//     unwound through ("last_open_span", `--trace` runs only) and the
//     FlowReport of every pass that ran before (and including) the
//     failure, so a mid-flow crash still tells the caller how far the
//     flow got and what it cost.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "core/desync.h"
#include "util/json.h"

namespace desync::core {

/// Design-level facts of one drdesync invocation.
struct RunInfo {
  std::string input;          ///< input netlist path
  std::size_t cells_in = 0;   ///< top-module cells before the flow
  std::size_t cells_out = 0;  ///< after
  std::size_t nets_out = 0;
};

/// Full report of a successful run (schema in docs/report-schema.md).
[[nodiscard]] util::Json runReport(const RunInfo& info,
                                   const DesyncResult& result);

/// Deterministic projection of the run report: the design facts only
/// (cells, nets, regions, replaced FFs, reference periods, delay
/// elements) with every timing-, cache- and scheduling-dependent field
/// (the "flow" object) omitted.  Byte-identical for byte-identical flow
/// results — at any jobs budget, cold or warm cache, CLI or drdesyncd —
/// which is exactly the comparison the server determinism tests and
/// `drdesync-bench --verify` perform.
[[nodiscard]] util::Json canonicalRunReport(const RunInfo& info,
                                            const DesyncResult& result);

/// Partial report of a failed run: "error" + "failed_pass" (with its
/// elapsed "failed_pass_ms" and, when tracing, the "last_open_span") +
/// the passes completed before the failure.
[[nodiscard]] util::Json errorReport(const RunInfo& info,
                                     std::string_view error,
                                     std::string_view failed_pass,
                                     const FlowReport& flow);

}  // namespace desync::core
