// drdesync-fuzz — differential fuzzer for the desynchronization flow.
//
// Generates seeded random synchronous designs, pushes each through the
// complete seven-pass flow and cross-checks every invariant the repo
// guarantees (flow equivalence against the synchronous golden simulation,
// Verilog write/read fixpoint, STA/SDC sanity, proof-cache identity).
// On a failure the netlist is delta-debugged down to a minimal reproducer
// and written to the corpus directory with its one-line repro command.
//
//   drdesync-fuzz --runs 200                        # hunt
//   drdesync-fuzz --seed 7 --fault self-test --shrink --out-dir tests/corpus
//   drdesync-fuzz --replay tests/corpus/fz_s7_self-test.v
//                 --fault self-test --expect-check self-test   (one line)
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "core/version.h"
#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "fuzz/shrink.h"
#include "liberty/liberty_io.h"

using namespace desync;

namespace {

void usage() {
  // One flag per line; tools/check_docs.sh cross-checks this text and
  // docs/cli.md against the parser, so a new flag cannot ship undocumented.
  std::fputs(
      "usage: drdesync-fuzz [--runs N] [--seed S] [options...]\n"
      "       drdesync-fuzz --replay FILE [--expect-check NAME]\n"
      "                                           (full docs: docs/cli.md)\n"
      "\n"
      "generation:\n"
      "  --seed S           first seed (default 1)\n"
      "  --runs N           number of consecutive seeds to try (default 1)\n"
      "  --lib <builtin:hs|builtin:ll>  Liberty library (default builtin:hs)\n"
      "  --emit FILE        write the --seed design's Verilog and exit\n"
      "                     (no oracle run; '-' for stdout)\n"
      "\n"
      "oracle:\n"
      "  --fault NAME       inject a known flow fault: none, fully-decoupled,\n"
      "                     short-margin or self-test (default none)\n"
      "  --cycles N         synchronous clock cycles simulated (default 16)\n"
      "  --no-cache         skip the proof-cache check (check 8)\n"
      "  --eco-seed S       seed of the cache check's scripted edit (default:\n"
      "                     the design seed in generation mode, 1 otherwise)\n"
      "  --fe-mode M        flow-equivalence route: 'sim' (vector batches,\n"
      "                     default), 'prove' (per-register SAT proof), or\n"
      "                     'both' — the two routes must agree\n"
      "  --jobs N           worker threads for the main flow, 0 = auto\n"
      "\n"
      "failure handling:\n"
      "  --shrink           delta-debug a failing design to a minimal\n"
      "                     reproducer before reporting it\n"
      "  --max-evals N      shrinker oracle-evaluation budget (default 400)\n"
      "  --out-dir DIR      write reproducer .v files here (default: cwd)\n"
      "\n"
      "corpus replay:\n"
      "  --replay FILE      run the oracle on an existing netlist instead of\n"
      "                     generating one (repeatable)\n"
      "  --expect-check NAME  replay must fail exactly this check (for\n"
      "                     checked-in fault reproducers); without it a\n"
      "                     replay must pass\n"
      "\n"
      "  --version          print tool version\n"
      "  --help, -h         this message\n",
      stderr);
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

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "drdesync-fuzz: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string describe(const fuzz::OracleVerdict& v) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "cells=%zu ffs=%zu regions=%d compared=%zu",
                v.cells, v.ffs_replaced, v.regions, v.values_compared);
  std::string out = buf;
  if (v.registers_proved > 0) {
    out += " proved=" + std::to_string(v.registers_proved);
  }
  if (!v.eco_edit.empty()) out += "; eco edit: " + v.eco_edit;
  if (!v.note.empty()) out += "; note: " + v.note;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Join pool workers on every exit path so they are never torn down by
  // static destructors racing other translation units (core/parallel.h).
  struct PoolJoin {
    ~PoolJoin() { core::shutdownParallel(); }
  } pool_join;
  std::uint64_t seed = 1;
  int runs = 1;
  std::string lib_name = "builtin:hs";
  std::string out_dir = ".";
  std::string emit_path;
  std::string expect_check;
  std::vector<std::string> replays;
  fuzz::OracleOptions oracle;
  fuzz::ShrinkOptions shrink_opt;
  bool do_shrink = false;
  bool eco_seed_fixed = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      seed = static_cast<std::uint64_t>(parseIntFlag(arg, next()));
    } else if (arg == "--runs") {
      runs = parseIntFlag(arg, next());
    } else if (arg == "--lib") {
      lib_name = next();
    } else if (arg == "--emit") {
      emit_path = next();
    } else if (arg == "--fault") {
      try {
        oracle.fault = fuzz::parseFaultKind(next());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "drdesync-fuzz: %s\n", e.what());
        return 2;
      }
    } else if (arg == "--cycles") {
      oracle.cycles = parseIntFlag(arg, next());
    } else if (arg == "--no-cache") {
      oracle.check_cache = false;
    } else if (arg == "--eco-seed") {
      oracle.eco_seed = static_cast<std::uint64_t>(parseIntFlag(arg, next()));
      eco_seed_fixed = true;
    } else if (arg == "--fe-mode") {
      try {
        oracle.fe_mode = core::parseFeMode(next());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "drdesync-fuzz: %s\n", e.what());
        return 2;
      }
    } else if (arg == "--jobs") {
      const int jobs = parseIntFlag(arg, next());
      if (jobs < 0 || jobs > 1024) {
        std::fprintf(stderr, "--jobs must be in 0..1024 (got %d)\n", jobs);
        return 2;
      }
      core::setThreadJobs(jobs);
      oracle.restore_jobs = jobs;  // the cache check restores this count
    } else if (arg == "--shrink") {
      do_shrink = true;
    } else if (arg == "--max-evals") {
      shrink_opt.max_evals = parseIntFlag(arg, next());
    } else if (arg == "--out-dir") {
      out_dir = next();
    } else if (arg == "--replay") {
      replays.push_back(next());
    } else if (arg == "--expect-check") {
      expect_check = next();
    } else if (arg == "--version") {
      std::printf("drdesync-fuzz %s\n",
                  std::string(core::kToolVersion).c_str());
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
  if (runs < 1) {
    std::fputs("drdesync-fuzz: --runs must be >= 1\n", stderr);
    return 2;
  }
  if (lib_name != "builtin:hs" && lib_name != "builtin:ll") {
    std::fputs("drdesync-fuzz: --lib must be builtin:hs or builtin:ll\n",
               stderr);
    return 2;
  }

  liberty::Library library = liberty::loadLibrary(lib_name);
  liberty::Gatefile gatefile(library);

  // --- emit mode: dump one generated design, no oracle --------------------
  if (!emit_path.empty()) {
    const std::string text = fuzz::generateVerilog(gatefile, seed);
    if (emit_path == "-") {
      std::fputs(text.c_str(), stdout);
      return 0;
    }
    std::ofstream out(emit_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "drdesync-fuzz: cannot write %s\n",
                   emit_path.c_str());
      return 1;
    }
    out << text;
    return 0;
  }

  // --- corpus replay mode ------------------------------------------------
  if (!replays.empty()) {
    for (const std::string& path : replays) {
      fuzz::OracleVerdict v;
      try {
        v = fuzz::runOracle(readFile(path), gatefile, oracle);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "drdesync-fuzz: %s: %s\n", path.c_str(),
                     e.what());
        return 1;
      }
      if (expect_check.empty()) {
        if (!v.ok) {
          std::fprintf(stderr, "FAIL %s: check %s: %s\n", path.c_str(),
                       v.check.c_str(), v.detail.c_str());
          return 1;
        }
        std::printf("ok   %s (%s)\n", path.c_str(), describe(v).c_str());
      } else {
        if (v.ok || v.check != expect_check) {
          const std::string got = v.ok ? "a pass" : "'" + v.check + "'";
          std::fprintf(stderr,
                       "FAIL %s: expected check '%s' to fail, got %s\n",
                       path.c_str(), expect_check.c_str(), got.c_str());
          return 1;
        }
        std::printf("ok   %s (still fails %s: %s)\n", path.c_str(),
                    v.check.c_str(), v.detail.c_str());
      }
    }
    return 0;
  }

  // --- generation mode ---------------------------------------------------
  fuzz::GeneratorConfig gen;
  for (int r = 0; r < runs; ++r) {
    const std::uint64_t s = seed + static_cast<std::uint64_t>(r);
    const std::string text = fuzz::generateVerilog(gatefile, s, gen);
    // The cache check's edit follows the design seed so every seed
    // exercises a different edit kind/site; --eco-seed pins it for
    // reproduction.
    if (!eco_seed_fixed) oracle.eco_seed = s;
    fuzz::OracleVerdict v = fuzz::runOracle(text, gatefile, oracle);
    if (v.ok) {
      std::printf("seed %llu: ok (%s)\n",
                  static_cast<unsigned long long>(s), describe(v).c_str());
      continue;
    }
    std::printf("seed %llu: FAIL check %s: %s\n",
                static_cast<unsigned long long>(s), v.check.c_str(),
                v.detail.c_str());

    std::string repro = text;
    std::string check = v.check;
    if (do_shrink) {
      shrink_opt.oracle = oracle;
      fuzz::ShrinkResult sr = fuzz::shrink(text, gatefile, shrink_opt);
      repro = sr.verilog;
      check = sr.check;
      std::printf("seed %llu: shrunk %zu -> %zu cells (%d oracle evals)\n",
                  static_cast<unsigned long long>(s), sr.initial_cells,
                  sr.final_cells, sr.evals);
    }

    const std::string name =
        "fz_s" + std::to_string(s) + "_" + check + ".v";
    const std::string path = out_dir + "/" + name;
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "drdesync-fuzz: cannot write %s\n", path.c_str());
      return 1;
    }
    out << "// drdesync-fuzz reproducer: seed "
        << static_cast<unsigned long long>(s) << ", failing check \"" << check
        << "\"\n"
        << "// " << v.detail << "\n";
    if (check == "cache") {
      // The replayed oracle must apply the identical scripted edit.
      out << "// eco edit (seed " << static_cast<unsigned long long>(
                 oracle.eco_seed) << "): " << v.eco_edit << "\n";
    }
    out << "// repro: drdesync-fuzz --replay " << name << " --fault "
        << fuzz::faultKindName(oracle.fault)
        << (oracle.fe_mode == core::FeMode::kSim
                ? std::string{}
                : std::string(" --fe-mode ") +
                      core::feModeName(oracle.fe_mode))
        << (check == "cache" ? " --eco-seed " + std::to_string(oracle.eco_seed)
                           : std::string{})
        << " --expect-check " << check << "\n"
        << repro;
    std::printf("seed %llu: reproducer written to %s\n",
                static_cast<unsigned long long>(s), path.c_str());
    return 1;
  }
  std::printf("all %d seed(s) from %llu passed\n", runs,
              static_cast<unsigned long long>(seed));
  return 0;
}
