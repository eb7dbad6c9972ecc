// Failure-path reporting on degenerate netlists: which degenerate shapes
// the flow tolerates (port-only, combinational-only, empty regions), which
// throw mid-flow, and — for those that throw — that errorReport and the
// partial Chrome trace still tell the whole story of the passes that ran.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/desync.h"
#include "core/run_report.h"
#include "core/version.h"
#include "liberty/gatefile.h"
#include "liberty/stdlib90.h"
#include "netlist/verilog.h"
#include "trace/trace.h"

namespace nl = desync::netlist;
namespace lib = desync::liberty;
namespace core = desync::core;
namespace trace = desync::trace;

namespace {

const lib::Gatefile& gf() {
  static const lib::Library l = lib::makeStdLib90(lib::LibVariant::kHighSpeed);
  static const lib::Gatefile g(l);
  return g;
}

nl::Design parse(const std::string& text) {
  nl::Design d;
  nl::readVerilog(d, text, gf());
  return d;
}

// A sequential toggle whose module has no reset port at all: the control
// network pass must throw once asked to wire a reset it cannot find.
const char* kNoResetToggle = R"(
  module noreset (clk);
    input clk;
    wire q, nq;
    DFF t (.D(nq), .CP(clk), .Q(q));
    IV i (.A(q), .Z(nq));
  endmodule
)";

core::DesyncOptions withReset() {
  core::DesyncOptions opt;
  opt.control.reset_port = "rst_n";
  opt.control.reset_active_low = true;
  return opt;
}

TEST(ErrorReport, PortOnlyModuleFlowsToCompletion) {
  // The flow's tolerance boundary, pinned down: a module with ports but no
  // cells runs all seven passes (one empty region, zero substitutions,
  // zero controllers) rather than throwing.  The fuzz oracle relies on
  // this: shrunken reproducers may be arbitrarily hollowed out.
  nl::Design d = parse(
      "module empty (clk, rst_n);\n  input clk;\n  input rst_n;\n"
      "endmodule\n");
  core::DesyncResult r = core::desynchronize(d, d.top(), gf(), withReset());
  EXPECT_EQ(r.flow.passes().size(), 7u);
  EXPECT_EQ(r.substitution.ffs_replaced, 0u);
  EXPECT_TRUE(r.sdc.clocks.empty());
}

TEST(ErrorReport, DegenerateFailureCarriesPartialFlowReport) {
  nl::Design d = parse(kNoResetToggle);
  try {
    core::desynchronize(d, d.top(), gf(), withReset());
    FAIL() << "expected FlowError";
  } catch (const core::FlowError& e) {
    EXPECT_EQ(e.pass(), "control_network");
    // Five passes completed, the sixth died — all six are in the report.
    ASSERT_EQ(e.flow().passes().size(), 6u);
    EXPECT_EQ(e.flow().passes().back().name, "control_network");

    core::RunInfo info;
    info.input = "noreset.v";
    info.cells_in = 2;
    const std::string json =
        core::errorReport(info, e.what(), e.pass(), e.flow()).dump();
    EXPECT_NE(json.find("\"error\": \"reset port not found: rst_n\""),
              std::string::npos);
    EXPECT_NE(json.find("\"failed_pass\": \"control_network\""),
              std::string::npos);
    EXPECT_NE(json.find("\"failed_pass_ms\""), std::string::npos);
    EXPECT_NE(json.find("\"reference_sta\""), std::string::npos);
    EXPECT_NE(json.find("\"region_timing\""), std::string::npos);
    EXPECT_NE(json.find(core::kToolVersion), std::string::npos);
  }
}

TEST(ErrorReport, JsonWithoutFailedPassStillWellFormed) {
  // Errors outside any pass (parse errors, I/O) reach errorReport with
  // an empty pass name and an empty FlowReport: no "failed_pass" key, no
  // passes, but still a closed one-line JSON object with the error message.
  core::RunInfo info;
  info.input = "garbage.v";
  const std::string json =
      core::errorReport(info, "boom \"quoted\"", "", {}).dump();
  EXPECT_EQ(json.find("\"failed_pass\""), std::string::npos);
  EXPECT_NE(json.find("\"error\": \"boom \\\"quoted\\\"\""),
            std::string::npos);
  EXPECT_NE(json.find("\"passes\": []"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(desync::util::Json::parse(json).getString("error", ""),
            "boom \"quoted\"");
}

TEST(ErrorReport, PartialTraceWrittenWhenPassThrows) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "error_report_partial.json";
  std::filesystem::remove(path);

  trace::start(path.string());
  nl::Design d = parse(kNoResetToggle);
  std::string failed_pass;
  try {
    core::desynchronize(d, d.top(), gf(), withReset());
  } catch (const core::FlowError& e) {
    failed_pass = e.pass();
  }
  ASSERT_EQ(failed_pass, "control_network");
  trace::Summary summary = trace::finish();
  EXPECT_TRUE(summary.enabled);

  // The trace survives the mid-flow death: a loadable Chrome trace holding
  // the spans of every pass that ran up to the failure point.
  ASSERT_TRUE(std::filesystem::exists(path));
  std::ostringstream buf;
  buf << std::ifstream(path).rdbuf();
  const std::string text = buf.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("reference_sta"), std::string::npos);
  EXPECT_NE(text.find("control_network"), std::string::npos);

  // And errorReport (called after finish(), as drdesync does) names the
  // innermost span the exception unwound through.
  const desync::util::Json json =
      core::errorReport({}, "reset port not found: rst_n", failed_pass, {});
  EXPECT_NE(json.find("last_open_span"), nullptr);
  std::filesystem::remove(path);
}

}  // namespace
