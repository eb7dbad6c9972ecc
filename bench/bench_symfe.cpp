// Flow-equivalence route comparison: symbolic per-register proving
// (sim/symfe, `--fe-mode prove`) vs the sampling vector route
// (`--fe-check`) on the two CPU case studies (DLX four-stage pipeline,
// ARM-class single-group scan design).
//
// The two routes answer the same question with different strength: the
// vector route samples stored-value sequences over stimulus batches, the
// prover covers the whole input space per register (plus the token-flow
// protocol admissibility check) but is timing-blind.  Each repeat runs the
// flow with `--fe-mode both --fe-check 8` and reads the fe_check and
// fe_prove report entries: their wall times and their verdicts.  The bench
// FAILS (exit 1) when the prover leaves any register refuted or skipped,
// or when the vector route disagrees — the acceptance bar for the case
// studies.  Timings go to BENCH_symfe.json; CI publishes registers-proved
// and solver-conflict counts to the step summary, and the ARM-class proof
// graph's size, solver instances and trivial miters (the cold prover's
// work counters).
#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "dft/scan.h"
#include "harness.h"
#include "sim/symfe/symfe.h"

namespace dft = desync::dft;
namespace symfe = desync::sim::symfe;
using namespace bench;

namespace {

constexpr std::size_t kBatches = 8;

core::DesyncOptions feOptions() {
  core::DesyncOptions opt;
  opt.control.reset_port = "rst_n";
  opt.control.reset_active_low = true;
  opt.fe.mode = core::FeMode::kBoth;
  opt.fe.batches = kBatches;
  return opt;
}

core::DesyncResult flowDlx() {
  nl::Design d;
  designs::buildCpu(d, gatefileHs(), designs::dlxConfig());
  core::DesyncOptions opt = feOptions();
  opt.manual_seq_groups = dlxStageRegions();
  return core::desynchronize(d, *d.findModule("dlx"), gatefileHs(), opt);
}

core::DesyncResult flowArm() {
  nl::Design d;
  designs::buildCpu(d, gatefileLl(), designs::armClassConfig());
  nl::Module& top = *d.findModule("armlike");
  dft::insertScan(top, gatefileLl());
  core::DesyncOptions opt = feOptions();
  opt.manual_seq_groups = {{""}};  // single group, as in the paper (§5.3)
  opt.grouping.false_path_nets = {"scan_en"};
  return core::desynchronize(d, top, gatefileLl(), opt);
}

struct RouteResult {
  std::size_t registers = 0;
  std::size_t proved = 0;
  std::size_t refuted = 0;
  std::size_t skipped = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::size_t graph_nodes = 0;
  std::size_t solvers = 0;
  std::size_t trivial = 0;
  bool prove_ok = false;
  bool vector_ok = false;
  std::size_t values_compared = 0;
  double vector_ms = std::numeric_limits<double>::infinity();
  double prove_ms = std::numeric_limits<double>::infinity();
};

/// Runs the flow `repeats` times: the verdicts are repeat-independent, the
/// route times are the minimum over repeats.
template <typename Flow>
RouteResult runDesign(const Flow& flow, int repeats) {
  RouteResult r;
  core::DesyncResult res;
  for (int i = 0; i < repeats; ++i) {
    res = flow();
    r.vector_ms = std::min(r.vector_ms, res.flow.find("fe_check")->wall_ms);
    r.prove_ms = std::min(r.prove_ms, res.flow.find("fe_prove")->wall_ms);
  }
  r.vector_ok = res.fe.report.equivalent;
  r.values_compared = res.fe.report.values_compared;
  const symfe::SymfeReport& rep = res.symfe.report;
  r.registers = rep.registers.size();
  r.proved = rep.proved;
  r.refuted = rep.refuted;
  r.skipped = rep.skipped;
  r.conflicts = rep.conflicts;
  r.decisions = rep.decisions;
  r.graph_nodes = rep.graph_nodes;
  r.solvers = rep.solvers;
  r.trivial = rep.trivial;
  r.prove_ok = rep.ok();
  if (!r.prove_ok) {
    for (const symfe::RegisterProof& reg : rep.registers) {
      if (reg.verdict == symfe::RegVerdict::kProved) continue;
      row("    %s %s: %s",
          reg.verdict == symfe::RegVerdict::kRefuted ? "REFUTED" : "SKIPPED",
          reg.name.c_str(), reg.reason.c_str());
    }
    if (!rep.protocol.admissible) {
      row("    PROTOCOL: %s", rep.protocol.violation.c_str());
    }
  }
  return r;
}

}  // namespace

int main() {
  header("Symbolic FE proving vs vector-route checking (prove vs sim)");
  const int repeats = benchRepeats(3);
  row("  %zu vector batches vs full per-register proofs; repeats: %d",
      kBatches, repeats);

  const RouteResult dlx = runDesign(flowDlx, repeats);
  const RouteResult arm = runDesign(flowArm, repeats);

  row("  %-10s %9s %8s %9s %9s %12s %12s", "design", "registers", "proved",
      "conflicts", "values", "vector (ms)", "prove (ms)");
  const struct {
    const char* name;
    const RouteResult* r;
  } rows[] = {{"dlx", &dlx}, {"arm_class", &arm}};
  bool ok = true;
  for (const auto& e : rows) {
    row("  %-10s %9zu %8zu %9llu %9zu %12.2f %12.2f", e.name, e.r->registers,
        e.r->proved, static_cast<unsigned long long>(e.r->conflicts),
        e.r->values_compared, e.r->vector_ms, e.r->prove_ms);
    if (!e.r->prove_ok) {
      row("  FAIL: %s prove route left %zu refuted / %zu skipped", e.name,
          e.r->refuted, e.r->skipped);
      ok = false;
    }
    if (!e.r->vector_ok) {
      row("  FAIL: %s vector route found mismatches", e.name);
      ok = false;
    }
  }

  RepeatedTiming t;
  t.runs_ms = {dlx.prove_ms, arm.prove_ms};
  t.min_ms = std::min(dlx.prove_ms, arm.prove_ms);
  t.median_ms = arm.prove_ms;
  writeBenchJson(
      "symfe", t,
      {{"batches", static_cast<double>(kBatches)},
       {"dlx_registers", static_cast<double>(dlx.registers)},
       {"dlx_proved", static_cast<double>(dlx.proved)},
       {"dlx_conflicts", static_cast<double>(dlx.conflicts)},
       {"dlx_decisions", static_cast<double>(dlx.decisions)},
       {"dlx_vector_ms", dlx.vector_ms},
       {"dlx_prove_ms", dlx.prove_ms},
       {"arm_registers", static_cast<double>(arm.registers)},
       {"arm_proved", static_cast<double>(arm.proved)},
       {"arm_conflicts", static_cast<double>(arm.conflicts)},
       {"arm_decisions", static_cast<double>(arm.decisions)},
       {"arm_graph_nodes", static_cast<double>(arm.graph_nodes)},
       {"arm_solvers", static_cast<double>(arm.solvers)},
       {"arm_trivial", static_cast<double>(arm.trivial)},
       {"arm_vector_ms", arm.vector_ms},
       {"arm_prove_ms", arm.prove_ms}});
  if (ok) {
    row("\n  all registers proved: dlx %zu/%zu, arm_class %zu/%zu",
        dlx.proved, dlx.registers, arm.proved, arm.registers);
  }
  return ok ? 0 : 1;
}
