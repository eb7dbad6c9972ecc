// drdesync — command-line desynchronization tool (thesis §3.2: "The tool
// has a command line interface and the desynchronization operation consists
// of a sequence of steps").
//
// Reads a post-synthesis gate-level Verilog netlist and a Liberty library,
// desynchronizes the top module and writes the converted netlist plus the
// backend constraints.
//
//   drdesync --lib builtin:hs --in dlx.v --top dlx
//            --reset-port rst_n --reset-active-low
//            --group "pc_,ifid_;idex_;exmem_,red_;rf_,dmem_"
//            --out dlx_desync.v --sdc dlx.sdc --blif dlx.blif --report
#include <cerrno>
#include <cmath>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/desync.h"
#include "core/parallel.h"
#include "core/run_report.h"
#include "core/version.h"
#include "flowdb/cache.h"
#include "liberty/liberty_io.h"
#include "liberty/stdlib90.h"
#include "netlist/blif.h"
#include "netlist/verilog.h"
#include "trace/trace.h"

using namespace desync;

namespace {

void usage() {
  // One flag per line; tools/check_docs.sh cross-checks this text and
  // docs/cli.md against the parser, so a new flag cannot ship undocumented.
  std::fputs(
      "usage: drdesync --lib <lib> --in <netlist.v> --out <netlist.v>\n"
      "                [options...]                (full docs: docs/cli.md)\n"
      "\n"
      "inputs / outputs:\n"
      "  --lib <file.lib|builtin:hs|builtin:ll>  Liberty library (required)\n"
      "  --in FILE          gate-level Verilog netlist to read (required)\n"
      "  --top NAME         top module (default: sole module of the input)\n"
      "  --out FILE         desynchronized Verilog netlist (required)\n"
      "  --sdc FILE         write backend timing constraints (SDC)\n"
      "  --blif FILE        write the top module as BLIF\n"
      "  --gatefile FILE    write the derived gatefile (library view)\n"
      "\n"
      "flow options:\n"
      "  --reset-port NAME  controller reset port (default: none)\n"
      "  --reset-active-low reset is active-low\n"
      "  --group \"p1,p2;p3\" manual regions by cell-name prefix\n"
      "                     (';' separates regions, ',' prefixes)\n"
      "  --false-path NET   net the grouping pass ignores (repeatable)\n"
      "  --margin F         matched-delay factor on each region's critical\n"
      "                     path, >= 1.0 (default 1.15)\n"
      "  --mux-taps N       delay-line calibration taps: 0, 2, 4 or 8\n"
      "  --no-bus-heuristic disable bus-name region merging\n"
      "  --no-clean         skip netlist cleaning before grouping\n"
      "  --fe-check N       after the flow, simulate N stimulus batches\n"
      "                     and check flow equivalence of the converted\n"
      "                     netlist against the input (0 = off, default);\n"
      "                     the converted side runs until it has its\n"
      "                     captures\n"
      "  --fe-mode M        flow-equivalence route: 'sim' (vector batches,\n"
      "                     default), 'prove' (per-register SAT proof of\n"
      "                     projection equivalence + protocol check), or\n"
      "                     'both' (docs/symfe.md)\n"
      "\n"
      "execution:\n"
      "  --jobs N           worker threads, 0 = auto (default: DESYNC_JOBS\n"
      "                     env or hardware concurrency)\n"
      "  --cache-dir DIR    proof cache: reuse the proof of every register\n"
      "                     whose miter is unchanged since the previous run\n"
      "                     (docs/eco.md); output is byte-identical to an\n"
      "                     uncached run; inert with --fe-mode sim\n"
      "\n"
      "diagnostics:\n"
      "  --report           print the run report JSON to stdout\n"
      "                     (schema: docs/report-schema.md)\n"
      "  --trace FILE       write a Chrome trace_event JSON of the run,\n"
      "                     loadable in Perfetto (docs/trace-format.md);\n"
      "                     DESYNC_TRACE env sets a default path\n"
      "  --version          print tool and cache-format versions\n"
      "  --help, -h         this message\n",
      stderr);
}

/// Strict full-token numeric parses for flag values: trailing garbage and
/// out-of-range values are usage errors, not silently accepted prefixes.
double parseDoubleFlag(const std::string& flag, const std::string& text) {
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(begin, &end);
  if (end == begin || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "invalid number for %s: '%s'\n", flag.c_str(),
                 text.c_str());
    std::exit(2);
  }
  return v;
}

int parseIntFlag(const std::string& flag, const std::string& text) {
  int v = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    std::fprintf(stderr, "invalid integer for %s: '%s'\n", flag.c_str(),
                 text.c_str());
    std::exit(2);
  }
  return v;
}

void printReport(const util::Json& report) {
  std::fputs((report.dump() + "\n").c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string lib_path, in_path, top, out_path, sdc_path, blif_path,
      gatefile_path, group_spec, trace_path;
  core::DesyncOptions opt;
  bool report = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--lib") {
      lib_path = next();
    } else if (arg == "--in") {
      in_path = next();
    } else if (arg == "--top") {
      top = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--sdc") {
      sdc_path = next();
    } else if (arg == "--blif") {
      blif_path = next();
    } else if (arg == "--gatefile") {
      gatefile_path = next();
    } else if (arg == "--reset-port") {
      opt.control.reset_port = next();
    } else if (arg == "--reset-active-low") {
      opt.control.reset_active_low = true;
    } else if (arg == "--group") {
      group_spec = next();
    } else if (arg == "--false-path") {
      opt.grouping.false_path_nets.push_back(next());
    } else if (arg == "--margin") {
      const double margin = parseDoubleFlag(arg, next());
      if (!std::isfinite(margin) || margin < 1.0) {
        std::fprintf(stderr,
                     "--margin must be a finite factor >= 1.0 on the "
                     "critical path (got %g)\n",
                     margin);
        return 2;
      }
      opt.control.margin = margin;
    } else if (arg == "--mux-taps") {
      const int taps = parseIntFlag(arg, next());
      if (taps != 0 && taps != 2 && taps != 4 && taps != 8) {
        std::fprintf(stderr, "--mux-taps must be 0, 2, 4 or 8 (got %d)\n",
                     taps);
        return 2;
      }
      opt.control.mux_taps = taps;
    } else if (arg == "--jobs") {
      const int jobs = parseIntFlag(arg, next());
      if (jobs < 0 || jobs > 1024) {
        std::fprintf(stderr, "--jobs must be in 0..1024 (got %d)\n", jobs);
        return 2;
      }
      core::setThreadJobs(jobs);  // 0 resets to the env/hardware default
    } else if (arg == "--fe-check") {
      const int batches = parseIntFlag(arg, next());
      if (batches < 0 || batches > 4096) {
        std::fprintf(stderr, "--fe-check must be in 0..4096 (got %d)\n",
                     batches);
        return 2;
      }
      opt.fe.batches = static_cast<std::size_t>(batches);
    } else if (arg == "--fe-mode") {
      try {
        opt.fe.mode = core::parseFeMode(next());
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    } else if (arg == "--no-bus-heuristic") {
      opt.grouping.bus_heuristic = false;
    } else if (arg == "--no-clean") {
      opt.grouping.clean_logic = false;
    } else if (arg == "--cache-dir") {
      opt.flowdb.cache_dir = next();
    } else if (arg == "--report") {
      report = true;
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--version") {
      std::printf("drdesync %s (cache format %u)\n",
                  std::string(core::kToolVersion).c_str(),
                  flowdb::kCacheFormatVersion);
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage();
      return 2;
    }
  }
  if (lib_path.empty() || in_path.empty() || out_path.empty()) {
    usage();
    return 2;
  }
  opt.manual_seq_groups = core::parseManualGroups(group_spec);

  // The command line wins over the DESYNC_TRACE environment default.
  if (!trace_path.empty()) {
    trace::start(trace_path);
  } else {
    trace::startFromEnv();
  }

  core::RunInfo info;
  info.input = in_path;
  try {
    liberty::Library library =
        lib_path == "builtin:hs"
            ? liberty::makeStdLib90(liberty::LibVariant::kHighSpeed)
        : lib_path == "builtin:ll"
            ? liberty::makeStdLib90(liberty::LibVariant::kLowLeakage)
            : liberty::readLibertyFile(lib_path);
    liberty::Gatefile gatefile(library);
    if (!gatefile_path.empty()) {
      std::ofstream(gatefile_path) << gatefile.toText();
    }

    netlist::Design design;
    netlist::readVerilogFile(design, in_path, gatefile, {}, top);
    netlist::Module& module =
        top.empty() ? design.top() : *design.findModule(top);

    info.cells_in = module.numCells();
    core::DesyncResult result =
        core::desynchronize(design, module, gatefile, opt);

    // Drain and write the trace right after the flow so the file covers
    // exactly the seven passes; the summary rides into --report JSON.
    trace::Summary trace_summary = trace::finish();
    if (trace_summary.enabled) {
      result.flow.setTraceSummary(std::move(trace_summary));
    }

    netlist::writeVerilogFile(design, out_path);
    if (!sdc_path.empty()) {
      std::ofstream(sdc_path) << result.sdc.toText();
    }
    if (!blif_path.empty()) {
      std::ofstream(blif_path) << netlist::writeBlif(module);
    }

    if (report) {
      // Machine-readable run report (docs/report-schema.md), one line.
      info.cells_out = module.numCells();
      info.nets_out = module.numNets();
      printReport(core::runReport(info, result));
    }
    bool fe_failed = false;
    if (result.fe.ran) {
      const sim::FlowEqBatchReport& fe = result.fe.report;
      fe_failed = !fe.equivalent;
      std::fprintf(stderr,
                   "drdesync: fe-check: %zu batches, %zu values compared, "
                   "%zu mismatches: %s%s\n",
                   fe.batches_run, fe.values_compared, fe.mismatches,
                   fe.equivalent ? "flow-equivalent" : "NOT flow-equivalent",
                   result.substitution.ffs_replaced == 0
                       ? " (vacuous: no flip-flops replaced)"
                       : "");
    }
    if (result.symfe.ran) {
      const sim::symfe::SymfeReport& sf = result.symfe.report;
      if (!sf.ok()) fe_failed = true;
      std::fprintf(stderr,
                   "drdesync: fe-prove: %zu registers: %zu proved, %zu "
                   "refuted, %zu skipped; protocol %s: %s\n",
                   sf.registers.size(), sf.proved, sf.refuted, sf.skipped,
                   sf.protocol.controller.c_str(),
                   sf.ok() ? "projection equivalence proved"
                           : "NOT proved");
      for (const sim::symfe::RegisterProof& p : sf.registers) {
        if (p.verdict == sim::symfe::RegVerdict::kProved) continue;
        std::fprintf(stderr, "drdesync: fe-prove:   %s %s: %s\n",
                     p.verdict == sim::symfe::RegVerdict::kRefuted
                         ? "refuted"
                         : "skipped",
                     p.name.c_str(), p.reason.c_str());
      }
      if (!sf.protocol.admissible) {
        std::fprintf(stderr, "drdesync: fe-prove:   protocol: %s\n",
                     sf.protocol.violation.c_str());
      }
    }
    core::shutdownParallel();  // join workers before static destructors
    return fe_failed ? 1 : 0;
  } catch (const core::FlowError& e) {
    // A pass failed mid-flow: still write the trace collected so far (a
    // post-mortem of where the flow died), then the partial report with
    // every pass that ran (with timings) plus the failure itself.
    trace::finish();
    if (report) {
      printReport(core::errorReport(info, e.what(), e.pass(), e.flow()));
    }
    std::fprintf(stderr, "drdesync: error in pass %s: %s\n", e.pass().c_str(),
                 e.what());
    core::shutdownParallel();
    return 1;
  } catch (const std::exception& e) {
    trace::finish();
    if (report) {
      printReport(core::errorReport(info, e.what(), "", {}));
    }
    std::fprintf(stderr, "drdesync: error: %s\n", e.what());
    core::shutdownParallel();
    return 1;
  }
}
