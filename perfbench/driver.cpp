// perfbench driver: one process runs one benchmark workload.
//
// The driver links the repository's libraries and calls their public
// functions in the order the drdesync CLI and the drdesyncd daemon do:
// readVerilog -> desynchronize -> writeVerilog + SdcFile::toText, or one
// request over a server::Server's Unix socket.  Four workloads, each a
// single op kind on a single design; BENCHMARK.json runs the last three
// and cold is run by hand (README.md in this directory has the full
// definitions and the noise controls):
//
//   cold    ARM-class Verilog text -> prove-mode flow -> Verilog + SDC,
//           FlowDB off, --jobs 2.
//   rerun   DLX, prove on: a post-substitution --margin change and an
//           identical rerun of it, against a pass cache restored to its
//           primed state before every op, --jobs 2.
//   eco     ARM-class with a seeded 5-cell data-input inversion in one
//           register-file word, --eco against ECO tables primed on the
//           unedited design and restored before every op, --jobs 2.
//   daemon  one request to an in-process server (2 handlers, 2 client
//           connections, per-request jobs 1), cycling a fixed set of
//           generated designs in full passes.
//
// Every op's Verilog and SDC are compared with an in-process cold
// reference built during set-up, and every prove run must report zero
// refuted and zero skipped registers.  The process runs on two CPUs, and
// the end-to-end times are scaled by a host-speed probe sampled before
// every op (HostProbe).  The result is one JSON line on
// stdout; perfbench/run.py adds the trace-derived metrics and prints the
// final benchmark record.
//
//   perfbench_driver --workload cold --seed 1 --seconds 10 --trace 0
//       --work-dir DIR [--jobs N]
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/statfs.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/desync.h"
#include "core/parallel.h"
#include "designs/cpu.h"
#include "flowdb/hash.h"
#include "fuzz/generator.h"
#include "fuzz/rng.h"
#include "liberty/gatefile.h"
#include "liberty/library.h"
#include "liberty/stdlib90.h"
#include "netlist/verilog.h"
#include "server/client.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/server.h"
#include "trace/trace.h"

namespace {

namespace fs = std::filesystem;
namespace core = desync::core;
namespace designs = desync::designs;
namespace flowdb = desync::flowdb;
namespace fuzz = desync::fuzz;
namespace liberty = desync::liberty;
namespace netlist = desync::netlist;
namespace server = desync::server;
namespace trace = desync::trace;

using Clock = std::chrono::steady_clock;
using Json = server::Json;

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- fixed workload parameters ------------------------------------------

constexpr int kFlowJobs = 2;        ///< --jobs of cold, rerun and eco
constexpr int kHandlers = 2;        ///< daemon handler threads
constexpr int kConnections = 2;     ///< daemon client connections
constexpr int kRequestJobs = 1;     ///< daemon per-request jobs
constexpr int kCpus = 2;            ///< CPUs every workload's process runs on
/// Generated daemon designs.  Odd, and 0.9 * N lands mid-design (N = 5 mod
/// 10): with every design sent equally often, p50 and p90 then fall inside
/// one design's latency cluster instead of between two.
constexpr int kDaemonDesigns = 45;
constexpr int kEcoEdits = 5;
constexpr double kPrimeMargin = 1.15;   ///< rerun: margin the cache holds
constexpr double kRerunMargin = 1.25;   ///< rerun: margin the op asks for
constexpr int kWarmupOps = 3;           ///< untimed ops before timing
constexpr int kWarmupPasses = 2;        ///< daemon: untimed full passes
constexpr int kMinOps = 3;              ///< timed ops per block, at least
constexpr int kTraceBlocks = 4;  ///< --trace 1: untraced/traced block pairs
constexpr double kFailedLatencyMs = 1e12;  ///< a failed op's latency
constexpr double kDaemonSliceS = 0.5;  ///< daemon: replay between probes

// --- command line ---------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  int jobs = kFlowJobs;  ///< --jobs override (self-checks, golden digests)
};

[[noreturn]] void usageError(const std::string& message) {
  std::fprintf(stderr, "perfbench_driver: %s\n", message.c_str());
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usageError("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = next();
    } else if (arg == "--seed") {
      a.seed = std::stoull(next());
    } else if (arg == "--seconds") {
      a.seconds = std::stod(next());
    } else if (arg == "--trace") {
      a.trace = next() != "0";
    } else if (arg == "--work-dir") {
      a.work_dir = next();
    } else if (arg == "--jobs") {
      a.jobs = std::stoi(next());
    } else {
      usageError("unknown option " + arg);
    }
  }
  if (a.workload != "cold" && a.workload != "rerun" && a.workload != "eco" &&
      a.workload != "daemon") {
    usageError("--workload must be cold, rerun, eco or daemon");
  }
  if (a.work_dir.empty()) usageError("--work-dir is required");
  if (!(a.seconds > 0) || a.jobs < 1) usageError("bad --seconds or --jobs");
  return a;
}

// --- metrics --------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in output order.  Layers a workload does not
/// reach report 0.  perfbench/run.py checks this list against
/// BENCHMARK.json.
const std::vector<MetricDef>& perLayerDefs() {
  static const std::vector<MetricDef> defs = {
      {"netlist.read_ms", "ms"},
      {"netlist.write_ms", "ms"},
      {"netlist.cells_out", "count"},
      {"core.reference_sta_ms", "ms"},
      {"core.region_grouping_ms", "ms"},
      {"core.ff_substitution_ms", "ms"},
      {"core.dependency_graph_ms", "ms"},
      {"core.region_timing_ms", "ms"},
      {"core.control_network_ms", "ms"},
      {"core.sdc_generation_ms", "ms"},
      {"core.glue_cells", "count"},
      {"core.unattributed_ms", "ms"},
      {"op.remainder_ms", "ms"},
      {"parallel.pool_wait_ms", "ms"},
      {"parallel.reference_sta_speedup", "x"},
      {"symfe.prove_ms", "ms"},
      {"symfe.registers_proved", "count"},
      {"symfe.registers_restored", "count"},
      {"sat.conflicts", "count"},
      {"sat.decisions", "count"},
      {"flowdb.hits", "count"},
      {"flowdb.misses", "count"},
      {"flowdb.bytes_read", "bytes"},
      {"flowdb.bytes_written", "bytes"},
      {"flowdb.restore_ms", "ms"},
      {"eco.regions_restored_ratio", "ratio"},
      {"eco.registers_restored", "count"},
      {"eco.endpoints_restored", "count"},
      {"eco.cells_changed", "count"},
      {"server.roundtrip_ms", "ms"},
      {"server.queue_ms", "ms"},
      {"server.service_ms", "ms"},
      {"server.transport_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"share.netlist_pct", "%"},
      {"share.passes_pct", "%"},
      {"share.symfe_pct", "%"},
      {"share.session_pct", "%"},
      {"share.server_pct", "%"},
      {"setup.first_s", "s"},
  };
  return defs;
}

const char* const kPasses[] = {
    "reference_sta",   "region_grouping", "ff_substitution",
    "dependency_graph", "region_timing",  "control_network",
    "sdc_generation"};

/// One op's per-layer values: times (summed over the op's flows) and
/// deterministic work counts.
struct OpRecord {
  double wall_ms = 0.0;
  bool ok = true;
  std::map<std::string, double> ms;
  std::map<std::string, double> count;
};

/// The p-quantile of `v`, interpolating linearly between ranks.
double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Op latencies in fixed log-spaced bins, so a run's memory does not grow
/// with the number of ops it records.  percentile() interpolates linearly
/// between ranks, placing a bin's samples evenly inside it, and is within
/// one bin width (0.05 % by default) of the exact value.  A failed op
/// counts as slower than every other.
class Histogram {
 public:
  explicit Histogram(double bin_ratio = 1.0005)
      : log_ratio_(std::log(bin_ratio)),
        bins_(static_cast<std::size_t>(std::log(kMaxMs / kMinMs) / log_ratio_) +
              2) {}

  void add(double ms) {
    ++count_;
    if (!std::isfinite(ms)) {
      ++failed_;
      return;
    }
    sum_ += ms;
    const double pos =
        ms < kMinMs ? 0.0 : 1.0 + std::log(ms / kMinMs) / log_ratio_;
    ++bins_[std::min(static_cast<std::size_t>(pos), bins_.size() - 1)];
  }
  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] double sum() const { return sum_; }  ///< over ok ops

  [[nodiscard]] double percentile(double p) const {
    if (count_ == 0) return 0.0;
    const double rank = p * static_cast<double>(count_ - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, count_ - 1);
    const double frac = rank - static_cast<double>(lo);
    const double a = nth(lo), b = nth(hi);
    if (b == kFailedLatencyMs) return frac == 0.0 ? a : kFailedLatencyMs;
    return a + (b - a) * frac;
  }

 private:
  static constexpr double kMinMs = 1e-3;  ///< bin 0 holds [0, kMinMs)
  static constexpr double kMaxMs = 1e6;   ///< the last bin holds the rest

  /// The k-th smallest sample (0-based).
  [[nodiscard]] double nth(std::size_t k) const {
    if (k >= count_ - failed_) return kFailedLatencyMs;
    std::size_t below = 0;
    for (std::size_t b = 0;; ++b) {
      if (k >= below + bins_[b]) {
        below += bins_[b];
        continue;
      }
      const double at = (static_cast<double>(k - below) + 0.5) /
                        static_cast<double>(bins_[b]);
      if (b == 0) return kMinMs * at;
      return kMinMs * std::exp((static_cast<double>(b - 1) + at) * log_ratio_);
    }
  }

  double log_ratio_;
  std::vector<std::uint32_t> bins_;
  std::size_t count_ = 0;
  std::size_t failed_ = 0;
  double sum_ = 0.0;
};

// --- host speed ------------------------------------------------------------

/// Tracks the speed of the host the run lands on.  The VM this benchmark
/// runs on shares its physical cores: within seconds and over minutes the
/// same op's latency drifts by 20-50 % with the neighbours' load, far more
/// than the op's own noise.  sample() times a fixed kernel of the work the
/// flow does most -- building a std::unordered_map of short generated
/// names and looking them up, small allocations throughout -- and returns
/// kReferenceMs / its time: the factor that scales a time measured right
/// after it to a host on which the kernel takes kReferenceMs.  The
/// workloads sample it, untimed, before every op (daemon: before every
/// replay slice) and scale that op by it.  The kernel lives here, not in
/// the repository's libraries, so no change to them moves it.
class HostProbe {
 public:
  /// About the kernel's median on a quiet 4-vCPU Sapphire Rapids KVM guest.
  static constexpr double kReferenceMs = 18.0;

  HostProbe() { run(); }  // the first run warms the allocator; not a sample

  double sample() {
    ms_.push_back(run());
    return kReferenceMs / ms_.back();
  }
  [[nodiscard]] double medianMs() const { return median(ms_); }
  [[nodiscard]] std::size_t samples() const { return ms_.size(); }
  /// The factor of the run's median sample, for times measured before
  /// the ops (set-up).
  [[nodiscard]] double factor() const {
    return ms_.empty() ? 1.0 : kReferenceMs / medianMs();
  }

 private:
  static constexpr int kRounds = 3;
  static constexpr std::uint32_t kNames = 20000;

  static std::string name(std::uint32_t i) {
    return "n" + std::to_string(i % 100003U) + "_z";
  }

  double run() {
    const auto t = Clock::now();
    std::uint64_t x = 0;
    for (int round = 0; round < kRounds; ++round) {
      std::unordered_map<std::string, std::uint32_t> names;
      for (std::uint32_t i = 0; i < kNames; ++i) {
        names.emplace(name(i * 2654435761U), i);
      }
      for (std::uint32_t i = 0; i < kNames; ++i) {
        auto it = names.find(name(i * 40503U));
        if (it != names.end()) x += it->second;
      }
    }
    sink_ = x;
    return msSince(t);
  }

  std::vector<double> ms_;
  volatile std::uint64_t sink_ = 0;  ///< keeps the kernel's result live
};

// --- failures ------------------------------------------------------------

/// Counts failed checks and reports each on stderr, naming the workload,
/// the op and the layer.
class Failures {
 public:
  explicit Failures(std::string workload) : workload_(std::move(workload)) {}

  void add(const std::string& op, const std::string& layer,
           const std::string& what) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::fprintf(stderr, "perfbench: FAIL workload %s, op %s, layer %s: %s\n",
                 workload_.c_str(), op.c_str(), layer.c_str(), what.c_str());
    ++count_;
  }
  [[nodiscard]] std::size_t count() const { return count_; }

 private:
  std::string workload_;
  std::mutex mutex_;
  std::size_t count_ = 0;
};

// --- the library ---------------------------------------------------------

/// The hot cell library every flow shares (what drdesync builds from
/// `--lib builtin:hs` before reading its input).
struct Library {
  liberty::Library lib;
  liberty::Gatefile gatefile;
  Library()
      : lib(liberty::makeStdLib90(liberty::LibVariant::kHighSpeed)),
        gatefile(lib) {}
  Library(const Library&) = delete;
  Library& operator=(const Library&) = delete;
};

std::string digest(std::string_view text) {
  flowdb::KeyHasher h;
  h.str(text);
  return h.key().hex();
}

struct Output {
  std::string verilog;
  std::string sdc;
};

// --- one in-process flow -----------------------------------------------

/// One CLI-order flow with a timer around each public call.
struct Flow {
  Output out;
  core::DesyncResult result;
  std::int64_t cells_in = 0;
  std::int64_t cells_out = 0;
  double read_ms = 0.0;
  double desync_ms = 0.0;
  double write_ms = 0.0;
  double pool_wait_ms = 0.0;
};

Flow runFlow(const liberty::Gatefile& gf, std::string_view text,
             const std::string& top, const core::DesyncOptions& opt) {
  Flow f;
  netlist::Design design;
  auto t = Clock::now();
  netlist::readVerilog(design, text, gf, {}, top);
  f.read_ms = msSince(t);
  netlist::Module* found = design.findModule(top);
  if (found == nullptr) throw std::runtime_error("no module " + top);
  netlist::Module& m = *found;
  f.cells_in = static_cast<std::int64_t>(m.numCells());
  const core::PoolStats pool0 = core::threadPoolStats();
  t = Clock::now();
  f.result = core::desynchronize(design, m, gf, opt);
  f.desync_ms = msSince(t);
  f.pool_wait_ms = (core::threadPoolStats().wait_us - pool0.wait_us) / 1e3;
  t = Clock::now();
  f.out.verilog = netlist::writeVerilog(design);
  f.out.sdc = f.result.sdc.toText();
  f.write_ms = msSince(t);
  f.cells_out = static_cast<std::int64_t>(m.numCells());
  return f;
}

/// Adds one flow's layer values to an op record.
void addFlowLayers(OpRecord& op, const Flow& f) {
  const core::FlowReport& flow = f.result.flow;
  op.ms["netlist.read_ms"] += f.read_ms;
  op.ms["netlist.write_ms"] += f.write_ms;
  op.count["netlist.cells_out"] += static_cast<double>(f.cells_out);
  double passes_ms = 0.0;
  for (const core::PassStat& p : flow.passes()) passes_ms += p.wall_ms;
  for (const char* name : kPasses) {
    if (const core::PassStat* p = flow.find(name)) {
      op.ms[std::string("core.") + name + "_ms"] += p->wall_ms;
      op.ms["layer.passes_ms"] += p->wall_ms;
    }
  }
  // Cells the flow added net: latch pairs, controllers, C-elements and
  // delay elements, less the logic cleaning removed.
  op.count["core.glue_cells"] += static_cast<double>(f.cells_out - f.cells_in);
  op.ms["core.unattributed_ms"] += f.desync_ms - passes_ms;
  op.ms["parallel.pool_wait_ms"] += f.pool_wait_ms;
  if (const core::PassStat* ref = flow.find("reference_sta")) {
    if (ref->work_ms > 0 && ref->wall_ms > 0 &&
        op.ms.count("parallel.reference_sta_speedup") == 0) {
      op.ms["parallel.reference_sta_speedup"] = ref->work_ms / ref->wall_ms;
    }
  }
  if (const core::PassStat* p = flow.find("fe_prove")) {
    op.ms["symfe.prove_ms"] += p->wall_ms;
  }
  const core::FlowReport::SymfeSection& sf = flow.symfe();
  op.count["symfe.registers_proved"] += static_cast<double>(sf.proved);
  op.count["symfe.registers_restored"] += static_cast<double>(sf.restored);
  op.count["sat.conflicts"] += static_cast<double>(sf.conflicts);
  op.count["sat.decisions"] += static_cast<double>(sf.decisions);
  const core::FlowCacheStats& cs = flow.cacheStats();
  op.count["flowdb.hits"] += static_cast<double>(cs.hits);
  op.count["flowdb.misses"] += static_cast<double>(cs.misses);
  op.count["flowdb.bytes_read"] += static_cast<double>(cs.bytes_read);
  op.count["flowdb.bytes_written"] += static_cast<double>(cs.bytes_written);
  op.ms["flowdb.restore_ms"] += cs.restore_ms;
  const core::FlowReport::EcoSection& eco = flow.eco();
  if (eco.ran && eco.regions_total > 0) {
    op.count["eco.regions_restored_ratio"] =
        static_cast<double>(eco.regions_restored) /
        static_cast<double>(eco.regions_total);
  }
  op.count["eco.registers_restored"] +=
      static_cast<double>(eco.registers_restored);
  op.count["eco.endpoints_restored"] +=
      static_cast<double>(eco.endpoints_restored);
  op.count["eco.cells_changed"] += static_cast<double>(eco.cells_changed);
  op.ms["layer.flow_ms"] +=
      f.read_ms + f.desync_ms + f.write_ms;
}

/// Compares a flow's outputs and proof verdicts with the reference.
void checkFlow(const Flow& f, const Output& ref, Failures& failures,
               const std::string& op, OpRecord& rec) {
  if (f.out.verilog != ref.verilog) {
    failures.add(op, "netlist", "output Verilog differs from the reference");
    rec.ok = false;
  }
  if (f.out.sdc != ref.sdc) {
    failures.add(op, "core.sdc_generation",
                 "output SDC differs from the reference");
    rec.ok = false;
  }
  const core::FlowReport::SymfeSection& sf = f.result.flow.symfe();
  if (!sf.ran || sf.refuted != 0 || sf.skipped != 0) {
    failures.add(op, "symfe",
                 "prove run reported refuted=" + std::to_string(sf.refuted) +
                     " skipped=" + std::to_string(sf.skipped) +
                     (sf.ran ? "" : " (prover did not run)"));
    rec.ok = false;
  }
}

// --- primed-state restore ---------------------------------------------

/// The files of a primed FlowDB directory, held in memory.  restore()
/// brings the directory back to exactly that state, rewriting only files
/// an op replaced (FlowDB publishes by rename, so a rewritten file has a
/// new inode) and deleting files an op added.
class PrimedDir {
 public:
  explicit PrimedDir(fs::path dir) : dir_(std::move(dir)) {
    for (const auto& e : fs::recursive_directory_iterator(dir_)) {
      if (!e.is_regular_file()) continue;
      File f;
      std::ifstream in(e.path(), std::ios::binary);
      std::ostringstream bytes;
      bytes << in.rdbuf();
      f.bytes = bytes.str();
      f.id = fileId(e.path());
      files_.emplace(fs::relative(e.path(), dir_).string(), std::move(f));
    }
  }

  void restore() {
    std::set<std::string> seen;
    std::vector<fs::path> extra;
    for (const auto& e : fs::recursive_directory_iterator(dir_)) {
      if (!e.is_regular_file()) continue;
      const std::string rel = fs::relative(e.path(), dir_).string();
      auto it = files_.find(rel);
      if (it == files_.end()) {
        extra.push_back(e.path());
        continue;
      }
      seen.insert(rel);
      if (fileId(e.path()) != it->second.id) rewrite(rel, it->second);
    }
    for (const fs::path& p : extra) fs::remove(p);
    for (auto& [rel, f] : files_) {
      if (seen.count(rel) == 0) rewrite(rel, f);
    }
  }

 private:
  struct FileId {
    std::uint64_t ino = 0, size = 0;
    std::int64_t mtime_ns = 0;
    bool operator!=(const FileId& o) const {
      return ino != o.ino || size != o.size || mtime_ns != o.mtime_ns;
    }
  };
  struct File {
    std::string bytes;
    FileId id;
  };

  static FileId fileId(const fs::path& p) {
    struct stat st {};
    if (::stat(p.c_str(), &st) != 0) return {};
    return {static_cast<std::uint64_t>(st.st_ino),
            static_cast<std::uint64_t>(st.st_size),
            static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
                st.st_mtim.tv_nsec};
  }

  void rewrite(const std::string& rel, File& f) {
    const fs::path p = dir_ / rel;
    fs::create_directories(p.parent_path());
    // A fresh inode (write + rename), like FlowDB's own stores, so the
    // next restore() sees exactly the ops' writes.
    const fs::path tmp = p.string() + ".perfbench-tmp";
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      out.write(f.bytes.data(), static_cast<std::streamsize>(f.bytes.size()));
      if (!out) throw std::runtime_error("cannot write " + tmp.string());
    }
    fs::rename(tmp, p);
    f.id = fileId(p);
  }

  fs::path dir_;
  std::map<std::string, File> files_;
};

// --- inputs --------------------------------------------------------------

std::string cpuText(const Library& lib, const designs::CpuConfig& config,
                    int edits, std::uint64_t seed) {
  netlist::Design design;
  netlist::Module& m = designs::buildCpu(design, lib.gatefile, config);
  if (edits > 0) {
    // bench_eco's scripted ECO: an inverter in front of the data pin of a
    // flip-flop whose D net has one sink and a combinational driver.  The
    // seed picks a register-file word and which of its bits are edited;
    // bench_eco's scripted sites (rf_w0_r0..4) are one such draw.  Edits
    // elsewhere re-prove other numbers of registers -- 165 for a data-
    // memory word against 15 for a register-file word, more for sites
    // spread over words or on pipeline registers -- so drawing them too
    // would make the op's latency depend on the seed (README.md).
    const liberty::Gatefile& gf = lib.gatefile;
    std::vector<netlist::CellId> eligible;
    m.forEachCell([&](netlist::CellId c) {
      const std::string_view name = m.cellName(c);
      if (!name.starts_with("rf_")) return;
      if (!gf.isFlipFlop(m.cellType(c))) return;
      const liberty::SeqClass* sc = gf.seqClass(m.cellType(c));
      if (sc == nullptr || sc->data_pin.empty()) return;
      const netlist::NetId d = m.pinNet(c, sc->data_pin);
      if (!d.valid()) return;
      const netlist::Net& n = m.net(d);
      if (!n.driver.isCellPin() || n.sinks.size() != 1) return;
      if (gf.kind(m.cellType(n.driver.cell())) !=
          liberty::CellKind::kCombinational) {
        return;
      }
      eligible.push_back(c);
    });
    // One word per op: the seed draws a word, then `edits` of its bits.
    std::map<std::string, std::vector<netlist::CellId>> by_word;
    for (const netlist::CellId c : eligible) {
      const std::string_view name = m.cellName(c);
      by_word[std::string(name.substr(0, name.rfind("_r")))].push_back(c);
    }
    std::vector<const std::vector<netlist::CellId>*> words;
    for (const auto& [word, bits] : by_word) {
      if (bits.size() >= static_cast<std::size_t>(edits)) words.push_back(&bits);
    }
    if (words.empty()) throw std::runtime_error("too few ECO edit sites");
    fuzz::Rng rng{seed};
    eligible = *words[rng.below(words.size())];
    for (int i = 0; i < edits; ++i) {  // partial Fisher-Yates
      const std::size_t j =
          i + static_cast<std::size_t>(rng.below(eligible.size() - i));
      std::swap(eligible[i], eligible[j]);
    }
    for (int i = 0; i < edits; ++i) {
      const netlist::CellId ff = eligible[i];
      const std::string& pin = gf.seqClass(m.cellType(ff))->data_pin;
      const netlist::NetId d = m.pinNet(ff, pin);
      const std::string base = "eco_fix" + std::to_string(i);
      const netlist::NetId out = m.addNet(base + "_z");
      m.addCell(base + "_inv", "IV",
                {{"A", netlist::PortDir::kInput, d},
                 {"Z", netlist::PortDir::kOutput, out}});
      m.connectPin(ff, m.findPin(ff, pin), out);
    }
  }
  return netlist::writeVerilog(design);
}

core::DesyncOptions cpuOptions(const std::string& name) {
  core::DesyncOptions opt;
  opt.control.reset_port = "rst_n";
  opt.control.reset_active_low = true;
  if (name != "dlx") opt.manual_seq_groups = {{""}};
  opt.fe.mode = core::FeMode::kProve;
  return opt;
}

/// The flow options drdesyncd derives from a default request carrying
/// only a design and its reset (server/service.cpp's flowOptions).
core::DesyncOptions daemonOptions() {
  const server::Request req;
  core::DesyncOptions opt;
  opt.control.reset_port = "rst_n";
  opt.control.reset_active_low = true;
  opt.control.margin = req.margin;
  opt.control.mux_taps = req.mux_taps;
  opt.grouping.bus_heuristic = req.bus_heuristic;
  opt.grouping.clean_logic = req.clean_logic;
  return opt;
}

std::string fsTypeName(const std::string& path) {
  struct statfs s {};
  if (::statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext2/ext3/ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

/// Restricts this process to the first `n` CPUs it may run on.  Called
/// before any thread starts; later threads inherit the mask.  Returns the
/// CPUs ("0,1"), or "all" when no more than `n` are available.
std::string pinToCpus(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0 ||
      CPU_COUNT(&allowed) <= n) {
    return "all";
  }
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  std::string list;
  for (int c = 0, taken = 0; c < CPU_SETSIZE && taken < n; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    CPU_SET(c, &pinned);
    list += (taken++ > 0 ? "," : "") + std::to_string(c);
  }
  return ::sched_setaffinity(0, sizeof pinned, &pinned) == 0 ? list : "all";
}

double peakRssMb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- workloads -------------------------------------------------------------

/// One daemon reply, timed on the client.
struct Reply {
  double roundtrip_ms = 0.0;
  double queue_ms = 0.0;
  double service_ms = 0.0;
  std::size_t design = 0;  ///< index into the design set
  bool ok = false;
};

/// What a workload hands back to main(): its samples and set-up.
struct RunResult {
  std::vector<double> setup_s;  ///< one per repeated set-up
  Histogram latency;            ///< timed, untraced ops
  Histogram scaled_latency;     ///< the same, scaled by their probe samples
  /// daemon: the scaled latencies per design, in 1 % bins.
  std::vector<Histogram> scaled_by_design;
  Histogram traced_latency;     ///< timed, traced ops (--trace 1)
  /// cold, rerun, eco: per-layer values of the timed untraced ops.
  std::vector<OpRecord> ops;
  /// daemon: the server's split of the timed untraced requests.
  Histogram queue, service, transport;
  double service_sum_ms = 0.0;
  std::vector<std::string> trace_files;  ///< one per traced block
  double timed_s = 0.0;   ///< wall of the untraced timed ops
  double scaled_s = 0.0;  ///< the same, scaled by their probe samples
  std::string input_digest;
  Output reference;
  std::map<std::string, double> fixed_count;  ///< daemon: per-set counts
  std::map<std::string, double> fixed_ms;     ///< daemon: reference layers
  HostProbe probe;  ///< sampled between ops, outside the timed wall

  /// Records a timed, untraced op's latency `ms` (infinite if it failed),
  /// measured after a probe sample of factor `f`.
  void addLatency(double ms, double f) {
    latency.add(ms);
    scaled_latency.add(ms * f);
  }
  /// Adds timed, untraced wall measured after a probe sample of factor `f`.
  void addWall(double wall_s, double f) {
    timed_s += wall_s;
    scaled_s += wall_s * f;
  }
};

/// One timed block: runs ops for `seconds`, labelling them with `label`
/// and recording them as traced or untraced ops of `r`.
using Block =
    std::function<void(double seconds, const std::string& label, bool traced)>;

/// The timed part of a run.  --trace 0: one untraced block.  --trace 1:
/// kTraceBlocks pairs of an untraced and a traced block, so drift in the
/// host's speed hits both alike; each traced block writes its own Chrome
/// trace into the work dir.
void measure(const Args& args, RunResult& r, const Block& block) {
  if (!args.trace) {
    block(args.seconds, "", false);
    return;
  }
  const double block_s = args.seconds / (2 * kTraceBlocks);
  for (int b = 0; b < kTraceBlocks; ++b) {
    const std::string tag = "block" + std::to_string(b) + "-";
    block(block_s, tag, false);
    r.trace_files.push_back(
        (fs::path(args.work_dir) / ("trace-" + std::to_string(b) + ".json"))
            .string());
    trace::start(r.trace_files.back());
    block(block_s, "traced-" + tag, true);
    trace::finish();
  }
}

/// The single-client workloads: untimed warm-up ops, then the timed
/// blocks.  Each block runs `op` for its seconds (at least kMinOps
/// times), with `restore` and a host probe sample run untimed before
/// every op.
void runSingleClient(const Args& args, RunResult& r,
                     const std::function<void()>& restore,
                     const std::function<OpRecord(const std::string&)>& op) {
  for (int i = 0; i < kWarmupOps; ++i) {
    restore();
    op("warmup-" + std::to_string(i));
  }
  measure(args, r, [&](double seconds, const std::string& label, bool traced) {
    const auto begin = Clock::now();
    for (int i = 0; i < kMinOps || secondsSince(begin) < seconds; ++i) {
      restore();
      const double f = r.probe.sample();
      const auto t = Clock::now();
      OpRecord rec = op(label + std::to_string(i));
      const double wall_s = secondsSince(t);
      const double ms =
          rec.ok ? rec.wall_ms : std::numeric_limits<double>::infinity();
      if (traced) {
        r.traced_latency.add(ms);
      } else {
        r.addLatency(ms, f);
        r.addWall(wall_s, f);
        r.ops.push_back(std::move(rec));
      }
    }
  });
}

template <typename Fn>
double timeSetup(Fn&& fn) {
  const auto t = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Set-up is repeated and reported as a median: at least 5 times, and
/// until 0.25 s have passed (sub-millisecond set-ups repeat many times).
/// The first, cold set-up is also reported on its own (setup.first_s).
bool setupAgain(std::size_t done, Clock::time_point begin) {
  constexpr std::size_t kMin = 5, kMax = 1001;
  constexpr double kBudgetS = 0.25;
  return done < kMin ||
         (done < kMax &&
          std::chrono::duration<double>(Clock::now() - begin).count() <
              kBudgetS);
}

void runCold(const Args& args, RunResult& r, Failures& failures) {
  std::unique_ptr<Library> lib;
  for (const auto begin = Clock::now(); setupAgain(r.setup_s.size(), begin);) {
    r.setup_s.push_back(timeSetup([&] { lib = std::make_unique<Library>(); }));
  }
  const designs::CpuConfig cfg = designs::armClassConfig();
  const std::string text = cpuText(*lib, cfg, 0, 0);
  const core::DesyncOptions opt = cpuOptions(cfg.name);
  r.input_digest = digest(text);
  r.reference = runFlow(lib->gatefile, text, cfg.name, opt).out;

  runSingleClient(args, r, [] {}, [&](const std::string& label) {
    OpRecord rec;
    const auto t = Clock::now();
    Flow f = runFlow(lib->gatefile, text, cfg.name, opt);
    rec.wall_ms = msSince(t);
    addFlowLayers(rec, f);
    checkFlow(f, r.reference, failures, label, rec);
    return rec;
  });
}

void runRerun(const Args& args, RunResult& r, Failures& failures) {
  const designs::CpuConfig cfg = designs::dlxConfig();
  const fs::path cache = fs::path(args.work_dir) / "rerun-cache";
  std::unique_ptr<Library> lib;
  std::string text;
  core::DesyncOptions prime = cpuOptions(cfg.name);
  prime.control.margin = kPrimeMargin;
  prime.flowdb.cache_dir = cache.string();
  {
    // The input text is generated once, outside the timed set-up.
    Library gen;
    text = cpuText(gen, cfg, 0, 0);
  }
  for (const auto begin = Clock::now(); setupAgain(r.setup_s.size(), begin);) {
    fs::remove_all(cache);
    r.setup_s.push_back(timeSetup([&] {
      lib = std::make_unique<Library>();
      runFlow(lib->gatefile, text, cfg.name, prime);
    }));
  }
  PrimedDir primed(cache);
  core::DesyncOptions opt = prime;
  opt.control.margin = kRerunMargin;
  core::DesyncOptions ref_opt = opt;
  ref_opt.flowdb.cache_dir.clear();
  r.input_digest = digest(text);
  r.reference = runFlow(lib->gatefile, text, cfg.name, ref_opt).out;

  runSingleClient(args, r, [&] { primed.restore(); },
                  [&](const std::string& label) {
    OpRecord rec;
    const auto t = Clock::now();
    Flow change = runFlow(lib->gatefile, text, cfg.name, opt);
    Flow again = runFlow(lib->gatefile, text, cfg.name, opt);
    rec.wall_ms = msSince(t);
    addFlowLayers(rec, change);
    addFlowLayers(rec, again);
    checkFlow(change, r.reference, failures, label + " (margin change)", rec);
    checkFlow(again, r.reference, failures, label + " (identical rerun)",
              rec);
    for (const Flow* f : {&change, &again}) {
      if (f->result.flow.cacheStats().hits == 0) {
        failures.add(label, "flowdb", "warm flow restored nothing");
        rec.ok = false;
      }
    }
    return rec;
  });
}

void runEco(const Args& args, RunResult& r, Failures& failures) {
  const designs::CpuConfig cfg = designs::armClassConfig();
  const fs::path cache = fs::path(args.work_dir) / "eco-cache";
  std::unique_ptr<Library> lib;
  std::string pristine, edited;
  core::DesyncOptions opt = cpuOptions(cfg.name);
  opt.flowdb.cache_dir = cache.string();
  opt.flowdb.eco = true;
  {
    Library gen;
    pristine = cpuText(gen, cfg, 0, 0);
    edited = cpuText(gen, cfg, kEcoEdits, args.seed);
  }
  for (const auto begin = Clock::now(); setupAgain(r.setup_s.size(), begin);) {
    fs::remove_all(cache);
    r.setup_s.push_back(timeSetup([&] {
      lib = std::make_unique<Library>();
      runFlow(lib->gatefile, pristine, cfg.name, opt);
    }));
  }
  PrimedDir primed(cache);
  core::DesyncOptions ref_opt = cpuOptions(cfg.name);
  r.input_digest = digest(edited);
  r.reference = runFlow(lib->gatefile, edited, cfg.name, ref_opt).out;

  runSingleClient(args, r, [&] { primed.restore(); },
                  [&](const std::string& label) {
    OpRecord rec;
    const auto t = Clock::now();
    Flow f = runFlow(lib->gatefile, edited, cfg.name, opt);
    rec.wall_ms = msSince(t);
    addFlowLayers(rec, f);
    checkFlow(f, r.reference, failures, label, rec);
    if (!f.result.flow.eco().warm) {
      failures.add(label, "eco", "ECO tables were not used (cold run)");
      rec.ok = false;
    }
    return rec;
  });
}

/// Closed-loop replay of full passes over `order` from kConnections
/// clients until `seconds` have passed, handing each reply to `record`
/// (one call at a time).  Returns the replay wall in s.
double replay(const std::string& socket, const std::vector<std::string>& lines,
              const std::vector<std::size_t>& order, double seconds,
              int min_passes, const std::vector<Output>& refs,
              Failures& failures, const std::string& label,
              const std::function<void(const Reply&)>& record) {
  const std::size_t n = order.size();
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> limit{static_cast<std::size_t>(-1)};
  std::mutex record_mutex;
  std::vector<std::thread> clients;
  std::atomic<bool> client_error{false};
  const auto begin = Clock::now();
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&] {
      try {
        server::Client client(socket);
        for (;;) {
          const std::size_t i = cursor.fetch_add(1);
          if (i >= limit.load()) break;
          Reply rep;
          const std::size_t design = order[i % n];
          const auto t = Clock::now();
          client.sendLine(lines[design]);
          const std::string line = client.recvLine();
          rep.roundtrip_ms = msSince(t);
          rep.design = design;
          const Json reply = Json::parse(line);
          rep.ok = reply.getBool("ok", false);
          rep.queue_ms = reply.getNumber("queue_ms", 0.0);
          rep.service_ms = reply.getNumber("service_ms", 0.0);
          const std::string op = label + std::to_string(i);
          if (!rep.ok) {
            failures.add(op, "server",
                         "reply not ok: " + reply.getString("error", "?"));
          } else {
            const Output& ref = refs[design];
            if (reply.getString("verilog", "") != ref.verilog) {
              failures.add(op, "netlist",
                           "reply Verilog differs from the reference");
              rep.ok = false;
            }
            if (reply.getString("sdc", "") != ref.sdc) {
              failures.add(op, "core.sdc_generation",
                           "reply SDC differs from the reference");
              rep.ok = false;
            }
          }
          std::lock_guard<std::mutex> lock(record_mutex);
          record(rep);
        }
      } catch (const std::exception& e) {
        failures.add(label, "server", std::string("client: ") + e.what());
        client_error = true;
        limit = 0;
      }
    });
  }
  // Stop at the end of the pass running when time is up.
  const auto deadline =
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  while (!client_error) {
    const std::size_t done = cursor.load();
    if (Clock::now() >= deadline && done >= n * min_passes) {
      limit = std::min(limit.load(), (done + n - 1) / n * n);
      break;
    }
    if (done >= limit.load()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& t : clients) t.join();
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

void runDaemon(const Args& args, RunResult& r, Failures& failures) {
  const std::string socket = (fs::path(args.work_dir) / "d.sock").string();
  server::ServerOptions so;
  so.service.lib = "builtin:hs";
  so.service.default_jobs = kRequestJobs;
  so.handlers = kHandlers;
  so.socket_path = socket;

  // Set-up: what a daemon user waits for before the first request.
  std::unique_ptr<server::Server> srv;
  for (const auto begin = Clock::now(); setupAgain(r.setup_s.size(), begin);) {
    if (srv) srv->stop();
    srv.reset();
    fs::remove(socket);
    r.setup_s.push_back(timeSetup([&] {
      srv = std::make_unique<server::Server>(so);
      srv->start();
      server::Client probe(socket);
      probe.sendLine("{\"cmd\": \"ping\"}");
      (void)probe.recvLine();
    }));
  }

  // The fixed design set and its sequential in-process reference (the
  // service's read -> desynchronize -> write, at the request's jobs).
  const liberty::Gatefile& gf = srv->service().gatefile();
  std::vector<std::string> lines;
  std::vector<Output> refs;
  flowdb::KeyHasher input_hash, v_hash, s_hash;
  const core::DesyncOptions opt = daemonOptions();
  std::vector<OpRecord> ref_ops;
  {
    core::JobsScope jobs(kRequestJobs);
    for (int d = 0; d < kDaemonDesigns; ++d) {
      const std::uint64_t gen_seed = 1 + static_cast<std::uint64_t>(d);
      server::Request req;
      req.id = static_cast<std::uint64_t>(d) + 1;
      req.name = "design-" + std::to_string(d);
      req.design = fuzz::generateVerilog(gf, gen_seed, {});
      req.reset_port = "rst_n";
      req.reset_active_low = true;
      req.jobs = kRequestJobs;
      lines.push_back(server::requestLine(req));
      input_hash.str(req.design);
      Flow f = runFlow(gf, req.design, "fz_s" + std::to_string(gen_seed), opt);
      v_hash.str(f.out.verilog);
      s_hash.str(f.out.sdc);
      OpRecord rec;
      addFlowLayers(rec, f);
      ref_ops.push_back(std::move(rec));
      refs.push_back(std::move(f.out));
    }
  }
  r.input_digest = input_hash.key().hex();
  r.reference.verilog = v_hash.key().hex();  // digests, not text
  r.reference.sdc = s_hash.key().hex();
  for (const OpRecord& rec : ref_ops) {
    for (const auto& [k, v] : rec.count) r.fixed_count[k] += v;
  }
  // Per-request means over the set: the designs differ in size, so a
  // median per layer would pick a different design for each layer.
  for (const OpRecord& rec : ref_ops) {
    for (const auto& [k, v] : rec.ms) {
      r.fixed_ms[k] += v / static_cast<double>(ref_ops.size());
    }
  }

  r.scaled_by_design.assign(kDaemonDesigns, Histogram(1.01));

  // The seed fixes the order the set is sent in (same set every seed).
  std::vector<std::size_t> order(kDaemonDesigns);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  fuzz::Rng rng{args.seed};
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }

  replay(socket, lines, order, 0.0, kWarmupPasses, refs, failures, "warmup-",
         [](const Reply&) {});
  // Slices of kDaemonSliceS, each after a host probe sample taken while
  // the clients are idle and scaled by it.
  measure(args, r, [&](double seconds, const std::string& label, bool traced) {
    const auto begin = Clock::now();
    for (int slice = 0; slice == 0 || secondsSince(begin) < seconds;
         ++slice) {
      const double f = r.probe.sample();
      const double wall = replay(
          socket, lines, order, kDaemonSliceS, 1, refs, failures,
          label + "s" + std::to_string(slice) + "-", [&](const Reply& rep) {
        const double ms = rep.ok ? rep.roundtrip_ms
                                 : std::numeric_limits<double>::infinity();
        if (traced) {
          r.traced_latency.add(ms);
          return;
        }
        r.addLatency(ms, f);
        r.scaled_by_design[rep.design].add(ms * f);
        r.queue.add(rep.queue_ms);
        r.service.add(rep.service_ms);
        r.transport.add(rep.roundtrip_ms - rep.queue_ms - rep.service_ms);
        r.service_sum_ms += rep.service_ms;
      });
      if (!traced) r.addWall(wall, f);
    }
  });
  srv->stop();
}

// --- result ------------------------------------------------------------

Json metric(double value, const char* unit) {
  Json m = Json::object();
  m.set("value", Json::number(value));
  m.set("unit", Json::str(unit));
  return m;
}

/// Per-layer values of a run: medians of the per-op times, the per-op
/// counts (checked identical across ops), shares and trace overhead.
std::map<std::string, double> perLayer(const Args& args, const RunResult& r,
                                       Failures& failures) {
  std::map<std::string, double> v;
  std::set<std::string> ms_keys;
  for (const OpRecord& op : r.ops) {
    for (const auto& [k, x] : op.ms) ms_keys.insert(k);
  }
  for (const std::string& k : ms_keys) {
    std::vector<double> per;
    for (const OpRecord& op : r.ops) {
      auto it = op.ms.find(k);
      per.push_back(it == op.ms.end() ? 0.0 : it->second);
    }
    v[k] = median(per);
  }
  for (const OpRecord& op : r.ops) {
    for (const auto& [k, x] : op.count) {
      if (v.try_emplace(k, x).first->second != x) {
        failures.add("timed loop", k.substr(0, k.find('.')),
                     "count " + k + " differs between ops");
      }
    }
  }
  for (const auto& [k, x] : r.fixed_ms) v[k] = x;
  for (const auto& [k, x] : r.fixed_count) v[k] = x;

  // Shares: a layer's total over the ops against the ops' total wall.
  std::map<std::string, double> sum;
  double wall = 0.0;
  for (const OpRecord& op : r.ops) {
    for (const auto& [k, x] : op.ms) sum[k] += x;
    wall += op.wall_ms;
  }
  if (args.workload == "daemon") {
    // Layer times come from the sequential in-process reference pass
    // (per-request means); server times from the timed requests.
    v["server.roundtrip_ms"] = r.latency.percentile(0.5);
    v["server.queue_ms"] = r.queue.percentile(0.5);
    v["server.service_ms"] = r.service.percentile(0.5);
    v["server.transport_ms"] = r.transport.percentile(0.5);
    v["share.server_pct"] =
        100.0 * (r.latency.sum() - r.service_sum_ms) / r.latency.sum();
    sum = r.fixed_ms;
    wall = r.fixed_ms.at("layer.flow_ms");
  } else {
    std::vector<double> remainder;
    for (const OpRecord& op : r.ops) {
      remainder.push_back(op.wall_ms - op.ms.at("layer.flow_ms"));
    }
    v["op.remainder_ms"] = median(remainder);
  }
  v["share.netlist_pct"] =
      100.0 * (sum["netlist.read_ms"] + sum["netlist.write_ms"]) / wall;
  v["share.passes_pct"] = 100.0 * sum["layer.passes_ms"] / wall;
  v["share.symfe_pct"] = 100.0 * sum["symfe.prove_ms"] / wall;
  v["share.session_pct"] = 100.0 * sum["core.unattributed_ms"] / wall;
  if (r.traced_latency.count() > 0) {
    v["trace.overhead_pct"] = 100.0 * (r.traced_latency.percentile(0.5) /
                                           r.latency.percentile(0.5) -
                                       1.0);
  }
  v["setup.first_s"] = r.setup_s.front();
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  fs::create_directories(args.work_dir);
  const bool daemon = args.workload == "daemon";
  // Two CPUs carry each workload's two busy threads (pool threads or
  // handlers).  Fewer of the daemon's hand-offs then wait for the host to
  // wake an idle vCPU, and the probe runs where the op runs.
  const std::string cpus = pinToCpus(kCpus);
  if (!daemon) core::setThreadJobs(args.jobs);

  Failures failures(args.workload);
  RunResult r;
  try {
    if (args.workload == "cold") runCold(args, r, failures);
    if (args.workload == "rerun") runRerun(args, r, failures);
    if (args.workload == "eco") runEco(args, r, failures);
    if (daemon) runDaemon(args, r, failures);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: workload %s failed in set-up: %s\n",
                 args.workload.c_str(), e.what());
    core::shutdownParallel();
    return 1;
  }
  if (r.latency.count() == 0) {
    std::fprintf(stderr, "perfbench: no timed ops\n");
    return 1;
  }

  Json metrics = Json::object();
  const double setup_s = median(r.setup_s);
  const double ops = static_cast<double>(r.latency.count());
  if (!args.trace) {
    // Times and rates at the reference host speed (HostProbe); the values
    // as measured on this host go to the provenance.
    metrics.set("setup_s", metric(setup_s * r.probe.factor(), "s"));
    double p50_ms = r.scaled_latency.percentile(0.5);
    double p90_ms = r.scaled_latency.percentile(0.9);
    if (daemon) {
      // Quantiles over the design set of each design's median: a design
      // is sent hundreds of times, and its median drops the requests the
      // host stalled, which no probe sample predicts.
      std::vector<double> design_p50;
      for (const Histogram& h : r.scaled_by_design) {
        design_p50.push_back(h.percentile(0.5));
      }
      p50_ms = quantile(design_p50, 0.5);
      p90_ms = quantile(design_p50, 0.9);
    }
    metrics.set("p50_ms", metric(p50_ms, "ms"));
    metrics.set("p90_ms", metric(p90_ms, "ms"));
    metrics.set("ops_per_s", metric(ops / r.scaled_s, "1/s"));
    metrics.set("peak_rss_mb", metric(peakRssMb(), "MB"));
  } else {
    const std::map<std::string, double> v = perLayer(args, r, failures);
    for (const MetricDef& d : perLayerDefs()) {
      auto it = v.find(d.name);
      metrics.set(d.name, metric(it == v.end() ? 0.0 : it->second, d.unit));
    }
  }

  Json prov = Json::object();
  prov.set("build_type", Json::str(PERFBENCH_BUILD_TYPE));
  prov.set("compiler", Json::str(std::string("gcc-compatible ") + __VERSION__));
  prov.set("nproc", Json::number(std::thread::hardware_concurrency()));
  prov.set("jobs", Json::number(daemon ? kRequestJobs : args.jobs));
  prov.set("handlers", Json::number(daemon ? kHandlers : 0));
  prov.set("connections", Json::number(daemon ? kConnections : 1));
  prov.set("cpus", Json::str(cpus));
  prov.set("seed", Json::number(static_cast<double>(args.seed)));
  prov.set("work_dir_fs", Json::str(fsTypeName(args.work_dir)));
  prov.set("timed_ops", Json::number(static_cast<double>(r.latency.count())));
  prov.set("host_probe",
           Json::object()
               .set("reference_ms", Json::number(HostProbe::kReferenceMs))
               .set("median_ms", Json::number(r.probe.medianMs()))
               .set("samples", Json::number(
                                   static_cast<double>(r.probe.samples())))
               .set("factor", Json::number(r.probe.factor())));
  prov.set("unscaled", Json::object()
                           .set("setup_s", Json::number(setup_s))
                           .set("p50_ms", Json::number(r.latency.percentile(0.5)))
                           .set("p90_ms", Json::number(r.latency.percentile(0.9)))
                           .set("ops_per_s", Json::number(ops / r.timed_s)));

  Json out = Json::object();
  out.set("attempted", Json::number(static_cast<double>(
                           r.latency.count() + r.traced_latency.count())));
  out.set("failed", Json::number(static_cast<double>(
                        r.latency.failed() + r.traced_latency.failed())));
  out.set("check_failures", Json::number(static_cast<double>(failures.count())));
  out.set("metrics", std::move(metrics));
  out.set("input_digest", Json::str(r.input_digest));
  out.set("reference", Json::object()
                           .set("verilog", Json::str(daemon ? r.reference.verilog
                                                            : digest(r.reference.verilog)))
                           .set("sdc", Json::str(daemon ? r.reference.sdc
                                                        : digest(r.reference.sdc))));
  out.set("traced_ops",
          Json::number(static_cast<double>(r.traced_latency.count())));
  Json trace_files = Json::array();
  for (const std::string& f : r.trace_files) trace_files.push(Json::str(f));
  out.set("trace_files", std::move(trace_files));
  out.set("provenance", std::move(prov));
  std::printf("%s\n", out.dump().c_str());
  std::fflush(stdout);
  core::shutdownParallel();
  return 0;
}
