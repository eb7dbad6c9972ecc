// Tool runtime — drdesync scaling with design size.
//
// The original drdesync was ~10k lines of C operating on industrial
// netlists; this measures how the reimplementation's full conversion
// (grouping, substitution, STA sizing, control-network insertion) scales
// with cell count.  Every case builds its design outside the timing and
// times desynchronize() alone, benchRepeats(10) times.  stdout gets each
// case's median/min wall time; BENCH_tool_runtime.json also gets its
// per-pass means (`<case>_median_ms`, `<case>_min_ms`, `<case>_<pass>_ms`).
// The DLX case runs a second time with the tracer recording: the delta is
// the tracer's overhead (acceptance: < 2 % on a traced run, 0 when
// disabled — one relaxed load + branch per site).
//
// Netlist IO is tracked the same way: the DLX and ARM-class designs as
// structural Verilog text, each read (`<d>_read_ms`, median) and the read
// design written back (`<d>_write_ms`), with the read's name-table probe
// count (`<d>_name_probes`, the same on any machine) and the ARM-class
// read/write ratio (`arm_read_write_ratio`).  A trajectory only: nothing
// here gates on wall time.
#include <filesystem>
#include <functional>

#include "designs/small.h"
#include "harness.h"
#include "netlist/verilog.h"
#include "trace/trace.h"

using namespace bench;

namespace {

struct Case {
  std::string key;  ///< JSON key prefix
  std::string label;
  std::function<nl::Module&(nl::Design&)> build;
  bool single_region = false;  ///< ARM-class: one manual region
  bool traced = false;         ///< record a full trace on every repeat
};

struct Result {
  RepeatedTiming timing;
  std::size_t cells = 0;
  /// Mean wall time per pass over the repeats, in flow order.
  std::vector<std::pair<std::string, double>> pass_ms;
  double trace_events = 0;  ///< mean events per traced run
};

Result runCase(const Case& c, int repeats) {
  const std::string trace_path =
      (std::filesystem::temp_directory_path() / "bench_dlx.trace.json")
          .string();
  Result res;
  for (int r = 0; r < repeats; ++r) {
    nl::Design d;
    nl::Module& m = c.build(d);
    res.cells = m.numCells();
    core::DesyncOptions opt;
    opt.control.reset_port = "rst_n";
    opt.control.reset_active_low = true;
    if (c.single_region) opt.manual_seq_groups = {{""}};
    if (c.traced) desync::trace::start(trace_path);
    const auto t0 = std::chrono::steady_clock::now();
    const core::DesyncResult out =
        core::desynchronize(d, m, gatefileHs(), opt);
    res.timing.runs_ms.push_back(std::chrono::duration<double, std::milli>(
                                     std::chrono::steady_clock::now() - t0)
                                     .count());
    // The trace drains outside the timing, like a real traced run's exit.
    if (c.traced) res.trace_events += desync::trace::finish().events;
    for (std::size_t i = 0; i < out.flow.passes().size(); ++i) {
      const core::PassStat& p = out.flow.passes()[i];
      if (i == res.pass_ms.size()) res.pass_ms.emplace_back(p.name, 0.0);
      res.pass_ms[i].second += p.wall_ms / repeats;
    }
  }
  if (c.traced) std::filesystem::remove(trace_path);
  res.trace_events /= repeats;
  summarizeTiming(res.timing);
  return res;
}

/// Median read and write of one design's Verilog text.
struct IoResult {
  RepeatedTiming read;
  RepeatedTiming write;
  nl::VerilogReadStats stats;
  std::size_t cells = 0;
};

IoResult runIo(const designs::CpuConfig& cfg, int repeats) {
  std::string text;
  {
    nl::Design d;
    designs::buildCpu(d, gatefileHs(), cfg);
    text = nl::writeVerilog(d);
  }
  IoResult res;
  nl::Design read;
  for (int r = 0; r < repeats; ++r) {
    // Each read fills a fresh design; its teardown stays outside the timing.
    nl::Design d;
    const auto t0 = std::chrono::steady_clock::now();
    res.stats = nl::readVerilog(d, text, gatefileHs());
    res.read.runs_ms.push_back(std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count());
    if (r == 0) read = std::move(d);
  }
  summarizeTiming(res.read);
  res.cells = read.top().numCells();
  std::size_t out_bytes = 0;
  res.write = measureRepeated(
      repeats, [&] { out_bytes += nl::writeVerilog(read).size(); });
  if (out_bytes == 0) std::abort();
  return res;
}

}  // namespace

int main() {
  header("Tool runtime: full conversion vs design size");
  const int repeats = benchRepeats(10);
  const auto counter = [](int bits) {
    return [bits](nl::Design& d) -> nl::Module& {
      return designs::buildCounter(d, gatefileHs(), bits);
    };
  };
  const auto cpu = [](const designs::CpuConfig& cfg) {
    return [cfg](nl::Design& d) -> nl::Module& {
      return designs::buildCpu(d, gatefileHs(), cfg);
    };
  };
  const std::vector<Case> cases = {
      {"counter8", "counter 8 bits", counter(8)},
      {"counter32", "counter 32 bits", counter(32)},
      {"counter64", "counter 64 bits", counter(64)},
      {"dlx", "DLX", cpu(designs::dlxConfig())},
      {"dlx_traced", "DLX, traced", cpu(designs::dlxConfig()), false, true},
      {"arm", "ARM-class", cpu(designs::armClassConfig()), true},
  };

  row("  repeats per case: %d", repeats);
  row("  %-16s %8s %11s %9s", "case", "cells", "median_ms", "min_ms");
  std::vector<Result> results;
  for (const Case& c : cases) {
    results.push_back(runCase(c, repeats));
    const Result& r = results.back();
    row("  %-16s %8zu %11.2f %9.2f", c.label.c_str(), r.cells,
        r.timing.median_ms, r.timing.min_ms);
  }

  const Result& dlx = results[3];
  const Result& traced = results[4];
  const double overhead_pct =
      100.0 * (traced.timing.median_ms - dlx.timing.median_ms) /
      dlx.timing.median_ms;
  row("  tracer overhead on DLX: %+.1f %% (%.0f events per run)",
      overhead_pct, traced.trace_events);

  std::vector<std::pair<std::string, double>> kv;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::string& k = cases[i].key;
    const Result& r = results[i];
    kv.emplace_back(k + "_cells", static_cast<double>(r.cells));
    kv.emplace_back(k + "_median_ms", r.timing.median_ms);
    kv.emplace_back(k + "_min_ms", r.timing.min_ms);
    for (const auto& [pass, ms] : r.pass_ms) {
      kv.emplace_back(k + "_" + pass + "_ms", ms);
    }
  }
  kv.emplace_back("dlx_trace_overhead_pct", overhead_pct);
  kv.emplace_back("dlx_traced_trace_events", traced.trace_events);

  row("  netlist IO (read the Verilog text, write the read design back):");
  row("  %-16s %8s %11s %11s %12s", "design", "cells", "read_ms", "write_ms",
      "name_probes");
  const std::pair<const char*, designs::CpuConfig> io_cases[] = {
      {"dlx", designs::dlxConfig()}, {"arm", designs::armClassConfig()}};
  for (const auto& [key, cfg] : io_cases) {
    const IoResult io = runIo(cfg, repeats);
    row("  %-16s %8zu %11.2f %11.2f %12zu", key, io.cells, io.read.median_ms,
        io.write.median_ms, io.stats.name_probes);
    const std::string k = key;
    kv.emplace_back(k + "_read_ms", io.read.median_ms);
    kv.emplace_back(k + "_write_ms", io.write.median_ms);
    kv.emplace_back(k + "_name_probes",
                    static_cast<double>(io.stats.name_probes));
    if (k == "arm") {
      kv.emplace_back("arm_read_write_ratio",
                      io.read.median_ms / io.write.median_ms);
    }
  }
  writeBenchJson("tool_runtime", dlx.timing, kv);
  return 0;
}
