#include "core/run_report.h"

#include "core/version.h"
#include "flowdb/cache.h"
#include "trace/trace.h"

namespace desync::core {

namespace {

using util::Json;

template <typename Int>
Json count(Int n) {
  return Json::number(static_cast<double>(n));
}

Json openReport(const RunInfo& info) {
  Json out = Json::object();
  out.set("input", Json::str(info.input));
  out.set("tool_version", Json::str(std::string(kToolVersion)));
  out.set("cache_format_version", count(flowdb::kCacheFormatVersion));
  return out;
}

/// The deterministic design facts shared by the full and canonical
/// reports: everything here is a pure function of the input design and
/// flow options, never of timing, jobs, or cache state.
Json designFacts(const RunInfo& info, const DesyncResult& result) {
  Json out = openReport(info);
  out.set("cells_in", count(info.cells_in));
  out.set("cells_out", count(info.cells_out));
  out.set("nets_out", count(info.nets_out));
  out.set("regions", count(result.regions.n_groups));
  out.set("ffs_replaced", count(result.substitution.ffs_replaced));
  out.set("sync_min_period_ns", reportNumber(result.sync_min_period_ns));
  Json by_corner = Json::object();
  for (const DesyncResult::CornerPeriod& cp : result.corner_periods) {
    by_corner.set(cp.corner, reportNumber(cp.min_period_ns));
  }
  out.set("sync_min_period_by_corner", std::move(by_corner));
  Json delays = Json::array();
  for (const RegionControl& rc : result.control.regions) {
    delays.push(Json::object()
                    .set("group", count(rc.group))
                    .set("levels", count(rc.delay_levels))
                    .set("cloud_ns", reportNumber(rc.required_delay_ns))
                    .set("matched_ns", reportNumber(rc.matched_delay_ns)));
  }
  out.set("delay_elements", std::move(delays));
  return out;
}

}  // namespace

Json runReport(const RunInfo& info, const DesyncResult& result) {
  Json out = designFacts(info, result);
  if (result.fe.ran) {
    // Engine-independent by construction: the golden batches are
    // byte-identical whether bitsim or its event fallback produced them
    // (tests/bitsim_test.cpp).
    const sim::FlowEqBatchReport& fe = result.fe.report;
    // "vacuous" is the honesty bit: with no flip-flop replaced there are
    // no capture sequences to compare, and "equivalent: true" alone would
    // overstate what the vector route checked.
    out.set("fe", Json::object()
                      .set("equivalent", Json::boolean(fe.equivalent))
                      .set("vacuous", Json::boolean(
                                          result.substitution.ffs_replaced ==
                                          0))
                      .set("batches", count(fe.batches_run))
                      .set("elements_compared", count(fe.elements_compared))
                      .set("values_compared", count(fe.values_compared))
                      .set("mismatches", count(fe.mismatches)));
  }
  if (result.symfe.ran) {
    const sim::symfe::SymfeReport& sf = result.symfe.report;
    out.set("symfe",
            Json::object()
                .set("ok", Json::boolean(sf.ok()))
                .set("registers", count(sf.registers.size()))
                .set("proved", count(sf.proved))
                .set("refuted", count(sf.refuted))
                .set("skipped", count(sf.skipped))
                .set("restored", count(sf.restored))
                .set("trivial", count(sf.trivial))
                .set("solvers", count(sf.solvers))
                .set("graph_nodes", count(sf.graph_nodes))
                .set("conflicts", count(sf.conflicts))
                .set("decisions", count(sf.decisions))
                .set("comb_only", Json::boolean(sf.comb_only))
                .set("protocol",
                     Json::object()
                         .set("checked", Json::boolean(sf.protocol.checked))
                         .set("admissible",
                              Json::boolean(sf.protocol.admissible))
                         .set("controller", Json::str(sf.protocol.controller))
                         .set("channels", count(sf.protocol.channels))
                         .set("states_explored",
                              count(sf.protocol.states_explored)))
                .set("graph_ms", reportNumber(sf.graph_ms))
                .set("solve_ms", reportNumber(sf.solve_ms))
                .set("ms", reportNumber(sf.total_ms)));
  }
  out.set("flow", result.flow.toJson());
  return out;
}

Json canonicalRunReport(const RunInfo& info, const DesyncResult& result) {
  return designFacts(info, result);
}

Json errorReport(const RunInfo& info, std::string_view error,
                 std::string_view failed_pass, const FlowReport& flow) {
  Json out = openReport(info);
  out.set("error", Json::str(std::string(error)));
  if (!failed_pass.empty()) {
    out.set("failed_pass", Json::str(std::string(failed_pass)));
    // The failing pass's ScopedPass records its elapsed time during
    // unwinding, so the partial report can say how long it ran before
    // dying.
    if (const PassStat* p = flow.find(failed_pass)) {
      out.set("failed_pass_ms", reportNumber(p->wall_ms));
    }
  }
  // Innermost trace span the exception unwound through — the closest
  // instrumented scope to the failure point (`--trace` runs only).
  const std::string span = trace::lastUnwoundSpan();
  if (!span.empty()) out.set("last_open_span", Json::str(span));
  out.set("flow", flow.toJson());
  return out;
}

}  // namespace desync::core
