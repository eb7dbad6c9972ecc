// Incremental recompute bench: warm `--cache-dir` runs against the proof
// table vs a cold flow, on edits, margin changes and identical reruns.
//
// Three kinds of warm run are measured per design, each against a cold
// flow of the same input at the same options (FlowDB off, the
// byte-identity reference):
//
//   edit       — an engineering change order inverts the data inputs of
//                1/5/50 registers (a scripted polarity fix, the classic
//                metal-layer ECO); the table is primed on the *unedited*
//                design, so the rerun re-proves exactly the registers whose
//                miters the edit changed and reuses every other proof
//                (docs/eco.md).  Prover on.
//   margin     — the unedited design rerun at margin 1.25 over a table
//                primed at 1.15: the margin only sizes delay elements,
//                which no miter reads, so every proof is reused.  Prover
//                on and off.
//   identical  — the unedited design rerun at the primed options.
//                Prover on and off.
//
// The accept gate (`bench_eco_accept`) checks deterministic work counters
// only, never wall-clock ratios: every warm run writes Verilog, SDC and
// per-register proof records identical to its cold reference; with the
// prover on it loaded the table, an edit of N registers (each inverts one
// register's single-sink D net, so exactly that register's miter changes)
// re-proves exactly N, and margin-change and identical reruns re-prove
// none; with the prover off the cache directory is inert and nothing is
// written.  The cold/warm wall ratios go to BENCH_eco.json as trajectory.
//
// Timed region: desynchronize() only (design construction stands in for
// parsing and is paid identically by all runs).  Each primed cache
// directory is copied before every warm repeat, so each repeat sees the
// same table.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.h"
#include "netlist/verilog.h"
#include "trace/trace.h"

namespace fs = std::filesystem;

namespace {

/// The scripted ECO: inserts an inverter in front of the data pins of the
/// first `count` flip-flops whose D net has exactly one sink and a
/// combinational driver (a late-in-cone edit: each site dirties one
/// register's input cone, not a whole stage).  Returns the edit count.
int applyEcoEdit(bench::nl::Module& m, const bench::lib::Gatefile& gf,
                 int count) {
  std::vector<bench::nl::CellId> ffs;
  m.forEachCell([&](bench::nl::CellId c) {
    if (gf.isFlipFlop(m.cellType(c))) ffs.push_back(c);
  });
  int done = 0;
  for (bench::nl::CellId ff : ffs) {
    if (done >= count) break;
    const bench::lib::SeqClass* sc = gf.seqClass(m.cellType(ff));
    if (sc == nullptr || sc->data_pin.empty()) continue;
    const bench::nl::NetId d = m.pinNet(ff, sc->data_pin);
    if (!d.valid()) continue;
    const bench::nl::Net& n = m.net(d);
    if (!n.driver.isCellPin() || n.sinks.size() != 1) continue;
    if (gf.kind(m.cellType(n.driver.cell())) !=
        bench::lib::CellKind::kCombinational) {
      continue;
    }
    const std::string base = "eco_fix" + std::to_string(done);
    const bench::nl::NetId out = m.addNet(base + "_z");
    m.addCell(base + "_inv", "IV",
              {{"A", bench::nl::PortDir::kInput, d},
               {"Z", bench::nl::PortDir::kOutput, out}});
    m.connectPin(ff, m.findPin(ff, sc->data_pin), out);
    ++done;
  }
  return done;
}

/// What one flow produced and how much of it the proof table restored.
struct Run {
  double ms = 0;  ///< desynchronize() wall time
  std::string verilog;
  std::string sdc;
  std::string proofs;  ///< per-register proof records, one line each
  int edits = 0;  ///< sites the scripted edit actually found
  bool warm = false;
  std::int64_t registers_restored = 0;
  std::int64_t registers_reproved = 0;  ///< prover verdicts not restored
  std::uint64_t bytes_written = 0;      ///< cache slot bytes stored
};

/// One desynchronization of `config` with `edits` ECO sites applied
/// (0 = pristine) at `margin`, against `cache_dir` (empty = FlowDB off),
/// with the prover on or off.
Run runFlow(const bench::designs::CpuConfig& config, int edits, double margin,
            bool prove, const std::string& cache_dir) {
  bench::nl::Design design;
  bench::designs::buildCpu(design, bench::gatefileHs(), config);
  bench::nl::Module& m = *design.findModule(config.name);
  Run run;
  if (edits > 0) run.edits = applyEcoEdit(m, bench::gatefileHs(), edits);
  bench::core::DesyncOptions opt;
  opt.control.reset_port = "rst_n";
  opt.control.reset_active_low = true;
  opt.control.margin = margin;
  if (config.name != "dlx") opt.manual_seq_groups = {{""}};
  if (prove) opt.fe.mode = bench::core::FeMode::kProve;
  opt.flowdb.cache_dir = cache_dir;
  const auto t0 = std::chrono::steady_clock::now();
  bench::core::DesyncResult r =
      bench::core::desynchronize(design, m, bench::gatefileHs(), opt);
  run.ms = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
               .count();
  run.verilog = bench::nl::writeVerilog(design);
  run.sdc = r.sdc.toText();
  const bench::core::FlowReport::EcoSection& eco = r.flow.eco();
  run.warm = eco.warm && r.flow.cacheStats().hits == 1;
  run.registers_restored = eco.registers_restored;
  run.registers_reproved =
      static_cast<std::int64_t>(r.symfe.report.registers.size()) -
      static_cast<std::int64_t>(r.symfe.report.restored);
  run.bytes_written = r.flow.cacheStats().bytes_written;
  for (const auto& p : r.symfe.report.registers) {
    run.proofs += p.name + " " + std::to_string(static_cast<int>(p.verdict)) +
                  " " + (p.trivial ? "1" : "0") + " " +
                  std::to_string(p.conflicts) + " " +
                  std::to_string(p.decisions) + "\n";
  }
  if (std::getenv("DESYNC_ECO_DEBUG")) {
    std::printf("-- %s edits=%d margin=%.2f prove=%d cache=%d: %.1f ms\n",
                config.name.c_str(), edits, margin, prove ? 1 : 0,
                cache_dir.empty() ? 0 : 1, run.ms);
    for (const auto& p : r.flow.passes()) {
      std::printf("   %-18s %8.2f ms\n", p.name.c_str(), p.wall_ms);
    }
  }
  return run;
}

/// One warm case: the min-time cold reference and the min-time warm run
/// (the counters of every warm repeat are identical; the last is kept).
struct Case {
  std::string name;  ///< "1c", "5c", "50c", "margin", "identical"
  bool prove = true;
  int requested = 0;  ///< edit sites asked for (edit cases only)
  Run cold;
  Run warm;
  bool matches = true;  ///< every warm repeat byte-identical to cold
  double ratio() const { return warm.ms > 0 ? cold.ms / warm.ms : 0; }
};

/// Measures one case: `edits` sites at `margin` (prover `prove`), cold vs
/// warm over copies of the tables in `primed`.
Case measure(const bench::designs::CpuConfig& config, const std::string& name,
             int edits, double margin, bool prove, const fs::path& primed,
             int repeats) {
  const fs::path dir =
      fs::temp_directory_path() / ("bench_eco_" + config.name + "_warm");
  Case c;
  c.name = name;
  c.prove = prove;
  c.requested = edits;
  c.cold.ms = c.warm.ms = 1e300;
  for (int i = 0; i < repeats; ++i) {
    Run cold = runFlow(config, edits, margin, prove, "");
    if (cold.ms < c.cold.ms) c.cold = std::move(cold);
  }
  for (int i = 0; i < repeats; ++i) {
    fs::remove_all(dir);
    fs::copy(primed, dir, fs::copy_options::recursive);
    Run warm = runFlow(config, edits, margin, prove, dir.string());
    c.matches = c.matches && warm.verilog == c.cold.verilog &&
                warm.sdc == c.cold.sdc && warm.proofs == c.cold.proofs;
    const double ms = std::min(c.warm.ms, warm.ms);
    c.warm = std::move(warm);
    c.warm.ms = ms;
  }
  fs::remove_all(dir);
  return c;
}

constexpr double kPrimeMargin = 1.15;
constexpr double kChangedMargin = 1.25;

std::vector<Case> measureDesign(const bench::designs::CpuConfig& config,
                                int repeats) {
  std::vector<Case> out;
  for (const bool prove : {true, false}) {
    // The table is primed once per prover setting on the pristine design
    // and copied for every warm repeat (without the prover the directory
    // stays empty).
    const fs::path primed = fs::temp_directory_path() /
                            ("bench_eco_" + config.name + "_primed");
    fs::remove_all(primed);
    fs::create_directories(primed);
    runFlow(config, 0, kPrimeMargin, prove, primed.string());
    if (prove) {
      for (int size : {1, 5, 50}) {
        out.push_back(measure(config, std::to_string(size) + "c", size,
                              kPrimeMargin, prove, primed, repeats));
      }
    }
    out.push_back(
        measure(config, "margin", 0, kChangedMargin, prove, primed, repeats));
    out.push_back(
        measure(config, "identical", 0, kPrimeMargin, prove, primed, repeats));
    fs::remove_all(primed);
  }
  return out;
}

bool isEdit(const Case& c) { return c.requested > 0; }

/// The deterministic gate for one case; prints the reason when it fails.
bool caseOk(const char* design, const Case& c) {
  std::string why;
  if (!c.matches) why = "warm output or proof records differ from cold";
  else if (c.prove && !c.warm.warm) why = "the proof table was not loaded";
  else if (!c.prove && c.warm.bytes_written != 0)
    why = "the cache was written without the prover";
  else if (isEdit(c) && c.warm.edits != c.requested) why = "edit incomplete";
  else if (isEdit(c) && c.warm.registers_reproved != c.warm.edits)
    why = "re-proved registers != edited registers";
  else if (!isEdit(c) && c.prove && c.warm.registers_reproved != 0)
    why = "registers re-proved";
  if (why.empty()) return true;
  bench::row("FAIL %s %s (%s): %s", design, c.name.c_str(),
             c.prove ? "prove" : "no prover", why.c_str());
  return false;
}

void printDesign(const char* design, const std::vector<Case>& cases) {
  for (const Case& c : cases) {
    bench::row("%-5s %-9s %-5s %9.1f %9.1f %7.1fx %6s %8lld %9llu", design,
               c.name.c_str(), c.prove ? "on" : "off", c.cold.ms, c.warm.ms,
               c.ratio(), c.matches ? "yes" : "NO",
               static_cast<long long>(c.warm.registers_reproved),
               static_cast<unsigned long long>(c.warm.bytes_written));
  }
}

void addJson(std::vector<std::pair<std::string, double>>& kv,
             const std::string& design, const std::vector<Case>& cases) {
  for (const Case& c : cases) {
    // Edit keys keep their historical names ("arm_5c_eco_ms"); the rerun
    // cases are suffixed with the prover setting.
    const char* fe = isEdit(c) ? "" : c.prove ? "_prove" : "_noprove";
    const std::string p = design + "_" + c.name + fe + "_";
    if (isEdit(c)) kv.emplace_back(p + "edits", c.warm.edits);
    kv.emplace_back(p + "cold_ms", c.cold.ms);
    kv.emplace_back(p + "eco_ms", c.warm.ms);
    kv.emplace_back(p + "cold_over_eco", c.ratio());
    kv.emplace_back(p + "matches_cold", c.matches ? 1.0 : 0.0);
    kv.emplace_back(p + "registers_restored",
                    static_cast<double>(c.warm.registers_restored));
    kv.emplace_back(p + "registers_reproved",
                    static_cast<double>(c.warm.registers_reproved));
    kv.emplace_back(p + "bytes_written",
                    static_cast<double>(c.warm.bytes_written));
  }
}

}  // namespace

int main() {
  desync::trace::startFromEnv();
  const int repeats = bench::benchRepeats();
  bench::header("Incremental recompute against the proof table vs cold");
  bench::row("%-5s %-9s %-5s %9s %9s %8s %6s %8s %9s", "design", "case",
             "fe", "cold_ms", "eco_ms", "cold/eco", "match", "reproved",
             "bytes_out");

  bench::RepeatedTiming total;
  const auto t0 = std::chrono::steady_clock::now();

  const std::vector<Case> dlx =
      measureDesign(bench::designs::dlxConfig(), repeats);
  printDesign("dlx", dlx);
  const std::vector<Case> arm =
      measureDesign(bench::designs::armClassConfig(), repeats);
  printDesign("arm", arm);

  total.runs_ms.push_back(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
  total.min_ms = total.median_ms = total.runs_ms.front();
  std::vector<std::pair<std::string, double>> kv;
  addJson(kv, "dlx", dlx);
  addJson(kv, "arm", arm);
  bench::writeBenchJson("eco", total, kv);

  bool ok = true;
  for (const Case& c : dlx) ok = caseOk("dlx", c) && ok;
  for (const Case& c : arm) ok = caseOk("arm", c) && ok;
  bench::row("%s", ok ? "OK: outputs and proof records identical to cold; "
                        "edits re-prove exactly the edited registers; "
                        "margin changes and identical reruns re-prove "
                        "nothing; the prover-off cache writes nothing"
                      : "FAIL: see the lines above");
  desync::trace::finish();
  return ok ? 0 : 1;
}
