// Tests for the src/trace flow tracer (docs/trace-format.md).
//
// One shared fixture runs the pipe2 desynchronization flow four times —
// traced and untraced, at --jobs 4 and --jobs 1 — and the tests check the
// two contracts of the tracer:
//   - the emitted file is well-formed Chrome trace_event JSON: every "B"
//     has a matching same-name "E" on the same track, timestamps are
//     monotonic per track, the worker-track count equals --jobs - 1 (the
//     caller is the "flow" track), every report entry (the seven passes,
//     the snapshot, the proof-cache load and store, fe_prove) appears as a
//     "pass"-category span, no top-level span on the flow track falls
//     outside a report entry, and the cache / counter events exist;
//   - tracing never changes flow output: the Verilog and SDC text is
//     byte-identical across all four runs.
// A separate test checks the writer's escaping: track and span names with
// quotes, backslashes and control characters parse back unchanged.
//
// The traced --jobs 4 run executes FIRST in this binary: the process-wide
// pool grows but never shrinks, so running it first pins the worker count
// (and therefore the trace's worker-track count) to exactly jobs - 1.
#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/desync.h"
#include "core/parallel.h"
#include "designs/small.h"
#include "liberty/stdlib90.h"
#include "netlist/verilog.h"
#include "trace/trace.h"
#include "util/json.h"

namespace core = desync::core;
namespace designs = desync::designs;
namespace lib = desync::liberty;
namespace nl = desync::netlist;
namespace trace = desync::trace;

namespace {

using desync::util::Json;

/// Member `key` of `v`; fails the test (and returns a null) when absent.
const Json& at(const Json& v, std::string_view key) {
  static const Json null;
  const Json* member = v.find(key);
  if (member == nullptr) {
    ADD_FAILURE() << "missing JSON key: " << key;
    return null;
  }
  return *member;
}
const std::string& str(const Json& v, std::string_view key) {
  return at(v, key).asString();
}
double num(const Json& v, std::string_view key) {
  return at(v, key).asNumber();
}

std::string readFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ---------------------------------------------------------------------------
// Fixture: four flow runs, one trace file per traced run.

constexpr int kJobs = 4;

const lib::Gatefile& gf() {
  static const lib::Library l = lib::makeStdLib90(lib::LibVariant::kHighSpeed);
  static const lib::Gatefile g(l);
  return g;
}

struct FlowOutput {
  std::string verilog;
  std::string sdc;
  std::vector<std::string> entries;  ///< report entry names, in order
};

/// Builds a fresh pipe2 and runs the full flow under the given settings;
/// a cached run proves (the cache holds proofs only).
FlowOutput runFlow(int jobs, const std::string& cache_dir) {
  nl::Design design;
  designs::buildPipe2(design, gf(), 6);
  nl::Module& module = *design.findModule("pipe2");
  core::DesyncOptions opt;
  opt.control.reset_port = "rst_n";
  opt.control.reset_active_low = true;
  opt.flowdb.cache_dir = cache_dir;
  if (!cache_dir.empty()) opt.fe.mode = core::FeMode::kProve;
  core::setThreadJobs(jobs);
  core::DesyncResult result = core::desynchronize(design, module, gf(), opt);
  core::setThreadJobs(0);
  FlowOutput out{nl::writeVerilog(design), result.sdc.toText(), {}};
  for (const core::PassStat& p : result.flow.passes()) {
    out.entries.push_back(p.name);
  }
  return out;
}

struct Fixture {
  FlowOutput traced_j4, traced_j1, plain_j4, plain_j1;
  Json trace_j4;   ///< parsed trace of the --jobs 4 run
  std::string trace_j4_error;
  trace::Summary summary_j4;
};

Fixture& fixture() {
  static Fixture* f = [] {
    auto* fx = new Fixture;
    // Per-process dir: ctest discovery runs each TEST as its own process,
    // concurrently under -j, and each process rebuilds this fixture — a
    // shared path would be remove_all'd under a sibling's feet.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("desync_trace_test_" +
         std::to_string(static_cast<long>(::getpid())));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    // Traced --jobs 4 run first: pins the pool (and the trace's worker
    // tracks) to exactly kJobs - 1 workers.  A fresh cache dir makes the
    // proof-table load/store entries appear in the trace.
    const std::string trace_path = (dir / "j4.trace.json").string();
    trace::start(trace_path);
    fx->traced_j4 = runFlow(kJobs, (dir / "cache").string());
    fx->summary_j4 = trace::finish();

    trace::start((dir / "j1.trace.json").string());
    fx->traced_j1 = runFlow(1, "");
    trace::finish();

    fx->plain_j4 = runFlow(kJobs, "");
    fx->plain_j1 = runFlow(1, "");

    try {
      fx->trace_j4 = Json::parse(readFile(trace_path));
    } catch (const desync::util::JsonError& e) {
      fx->trace_j4_error = e.what();
    }
    return fx;
  }();
  return *f;
}

/// The traceEvents array of the --jobs 4 trace.
const std::vector<Json>& events() {
  static const std::vector<Json> empty;
  const Json* list = fixture().trace_j4.find("traceEvents");
  return list == nullptr ? empty : list->asArray();
}

}  // namespace

TEST(Trace, FileIsValidJson) {
  Fixture& fx = fixture();
  EXPECT_TRUE(fx.trace_j4_error.empty()) << fx.trace_j4_error;
  ASSERT_TRUE(fx.trace_j4.isObject());
  ASSERT_NE(fx.trace_j4.find("traceEvents"), nullptr);
  EXPECT_GT(events().size(), 0u);
}

TEST(Trace, EveryBeginHasMatchingEndPerTrack) {
  std::map<double, std::vector<std::string>> open;  // tid -> span-name stack
  for (const Json& e : events()) {
    const std::string& ph = str(e, "ph");
    const double tid = num(e, "tid");
    if (ph == "B") {
      open[tid].push_back(str(e, "name"));
    } else if (ph == "E") {
      ASSERT_FALSE(open[tid].empty()) << "E without B on tid " << tid;
      EXPECT_EQ(open[tid].back(), str(e, "name")) << "tid " << tid;
      open[tid].pop_back();
    }
  }
  for (const auto& [tid, stack] : open) {
    EXPECT_TRUE(stack.empty())
        << stack.size() << " unclosed span(s) on tid " << tid
        << " (innermost: " << (stack.empty() ? "" : stack.back()) << ")";
  }
}

TEST(Trace, TimestampsMonotonicPerTrack) {
  std::map<double, double> last;
  for (const Json& e : events()) {
    const std::string& ph = str(e, "ph");
    if (ph == "M") continue;  // metadata carries no meaningful timestamp
    const double tid = num(e, "tid");
    const double ts = num(e, "ts");
    auto it = last.find(tid);
    if (it != last.end()) {
      EXPECT_GE(ts, it->second) << "tid " << tid << " event " << str(e, "name");
    }
    last[tid] = ts;
  }
}

TEST(Trace, WorkerTrackCountMatchesJobs) {
  int workers = 0;
  bool flow_track = false;
  for (const Json& e : events()) {
    if (str(e, "ph") != "M" || str(e, "name") != "thread_name") {
      continue;
    }
    const std::string& name = str(at(e, "args"), "name");
    if (name.rfind("worker-", 0) == 0) ++workers;
    if (name == "flow") flow_track = true;
  }
  // The caller thread is the "flow" track, so a --jobs N section executes
  // on N tracks: flow + N-1 pool workers.
  EXPECT_EQ(workers, kJobs - 1);
  EXPECT_TRUE(flow_track);
  EXPECT_EQ(fixture().summary_j4.worker_tracks, kJobs - 1);
}

TEST(Trace, AllSevenPassesTraced) {
  std::vector<std::string> passes;
  for (const Json& e : events()) {
    if (str(e, "ph") == "B" && e.find("cat") != nullptr &&
        str(e, "cat") == "pass") {
      passes.push_back(str(e, "name"));
    }
  }
  const std::vector<std::string> expected = {
      "sync_snapshot",   "eco_load",
      "reference_sta",   "region_grouping", "ff_substitution",
      "dependency_graph", "region_timing",  "control_network",
      "sdc_generation",  "fe_prove",        "eco_store"};
  EXPECT_EQ(passes, expected);
  EXPECT_EQ(fixture().traced_j4.entries, expected);
}

TEST(Trace, EveryTopLevelFlowSpanIsAReportEntry) {
  // Nothing desynchronize() does on the caller's track may run outside a
  // report entry: the top-level spans of the "flow" track are exactly the
  // report's entries, in order — so the entries account for the flow's
  // wall time.
  double flow_tid = -1.0;
  for (const Json& e : events()) {
    if (str(e, "ph") == "M" && str(e, "name") == "thread_name" &&
        str(at(e, "args"), "name") == "flow") {
      flow_tid = num(e, "tid");
    }
  }
  ASSERT_GE(flow_tid, 0.0);
  std::vector<std::string> top;
  int depth = 0;
  for (const Json& e : events()) {
    if (num(e, "tid") != flow_tid) continue;
    const std::string& ph = str(e, "ph");
    if (ph == "B") {
      if (depth == 0) {
        EXPECT_EQ(str(e, "cat"), "pass") << str(e, "name");
        top.push_back(str(e, "name"));
      }
      ++depth;
    } else if (ph == "E") {
      --depth;
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(top, fixture().traced_j4.entries);
}

TEST(Trace, ParallelCacheAndCounterEventsPresent) {
  bool parallel_for = false, parallel_run = false, eco_load = false,
       eco_store = false;
  std::vector<std::string> counters;
  double last_bytes_written = -1.0;
  for (const Json& e : events()) {
    const std::string& name = str(e, "name");
    const std::string& ph = str(e, "ph");
    if (ph == "B" || ph == "E") {
      if (name == "parallel_for") parallel_for = true;
      if (name == "parallel_run") parallel_run = true;
      if (name == "eco_load") eco_load = true;
      if (name == "eco_store") eco_store = true;
    } else if (ph == "C") {
      counters.push_back(name);
      if (name == "cache_bytes_written") {
        last_bytes_written = e.find("args")->getNumber("value", -1.0);
      }
    }
  }
  EXPECT_TRUE(parallel_for);
  EXPECT_TRUE(parallel_run);
  EXPECT_TRUE(eco_load);   // fresh cache dir: the table was probed
  EXPECT_TRUE(eco_store);  // ...and stored after the flow
  // Sampled once more after the store: the last value counts the table.
  EXPECT_GT(last_bytes_written, 0.0);
  auto hasCounter = [&](std::string_view n) {
    for (const std::string& c : counters) {
      if (c == n) return true;
    }
    return false;
  };
  EXPECT_TRUE(hasCounter("liberty_cell_lookups"));
  EXPECT_TRUE(hasCounter("liberty_pin_lookups"));
  EXPECT_TRUE(hasCounter("peak_rss_mb"));
  EXPECT_TRUE(hasCounter("cache_bytes_written"));
}

TEST(Trace, SummaryCountsMatchFile) {
  const trace::Summary& s = fixture().summary_j4;
  EXPECT_TRUE(s.enabled);
  std::uint64_t non_meta = 0, begins = 0, counter_events = 0;
  for (const Json& e : events()) {
    const std::string& ph = str(e, "ph");
    if (ph != "M") ++non_meta;
    if (ph == "B") ++begins;
    if (ph == "C") ++counter_events;
  }
  EXPECT_EQ(s.events, non_meta);
  EXPECT_EQ(s.spans, begins);
  EXPECT_EQ(s.counter_events, counter_events);
  EXPECT_EQ(s.pass_self_ms.size(), fixture().traced_j4.entries.size());
}

TEST(Trace, OutputBytesIdenticalTracedVsUntraced) {
  Fixture& fx = fixture();
  // Tracing on/off and --jobs 4/1 must not change a single output byte.
  EXPECT_EQ(fx.traced_j4.verilog, fx.plain_j4.verilog);
  EXPECT_EQ(fx.traced_j1.verilog, fx.plain_j1.verilog);
  EXPECT_EQ(fx.plain_j4.verilog, fx.plain_j1.verilog);
  EXPECT_EQ(fx.traced_j4.sdc, fx.plain_j4.sdc);
  EXPECT_EQ(fx.traced_j1.sdc, fx.plain_j1.sdc);
  EXPECT_EQ(fx.plain_j4.sdc, fx.plain_j1.sdc);
  EXPECT_FALSE(fx.plain_j1.verilog.empty());
  EXPECT_FALSE(fx.plain_j1.sdc.empty());
}

TEST(Trace, NamesWithQuotesBackslashesAndControlCharsRoundTrip) {
  // Names reach the file escaped, never altered: parsing the written trace
  // must give back exactly the track and span names that were recorded.
  const std::string track_name = "track \"q\" \\ new\nline \x01";
  const std::string span_name = "span \"q\" \\ new\nline \x01";
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("desync_trace_escape_" + std::to_string(static_cast<long>(::getpid())) +
       ".json");
  trace::start(path.string());
  {
    trace::TrackScope track(track_name);
    trace::Span span(span_name, "test");
  }
  trace::finish();
  const Json doc = Json::parse(readFile(path));
  std::filesystem::remove(path);

  bool track_found = false, span_found = false;
  for (const Json& e : at(doc, "traceEvents").asArray()) {
    if (str(e, "ph") == "M" && str(e, "name") == "thread_name" &&
        str(at(e, "args"), "name") == track_name) {
      track_found = true;
    }
    if (str(e, "ph") == "B" && str(e, "name") == span_name) span_found = true;
  }
  EXPECT_TRUE(track_found);
  EXPECT_TRUE(span_found);
}
