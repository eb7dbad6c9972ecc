#include "server/service.h"

#include <chrono>
#include <utility>

#include "core/desync.h"
#include "core/parallel.h"
#include "core/run_report.h"
#include "liberty/liberty_io.h"
#include "liberty/stdlib90.h"
#include "netlist/verilog.h"
#include "trace/trace.h"

namespace desync::server {

using util::Json;

namespace {

liberty::Library loadLibrary(const std::string& spec) {
  if (spec == "builtin:hs") {
    return liberty::makeStdLib90(liberty::LibVariant::kHighSpeed);
  }
  if (spec == "builtin:ll") {
    return liberty::makeStdLib90(liberty::LibVariant::kLowLeakage);
  }
  return liberty::readLibertyFile(spec);
}

core::DesyncOptions flowOptions(const Request& req) {
  core::DesyncOptions opt;
  opt.control.reset_port = req.reset_port;
  opt.control.reset_active_low = req.reset_active_low;
  opt.control.margin = req.margin;
  opt.control.mux_taps = req.mux_taps;
  opt.grouping.bus_heuristic = req.bus_heuristic;
  opt.grouping.clean_logic = req.clean_logic;
  opt.grouping.false_path_nets = req.false_paths;
  opt.manual_seq_groups = core::parseManualGroups(req.group);
  return opt;
}

double msSince(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - begin)
      .count();
}

}  // namespace

FlowService::FlowService(const ServiceOptions& options)
    : library_(loadLibrary(options.lib)),
      gatefile_(library_),
      default_jobs_(options.default_jobs) {}

Json FlowService::handle(const Request& req) {
  const auto begin = std::chrono::steady_clock::now();
  const std::string track =
      req.name.empty() ? "req-" + std::to_string(req.id) : req.name;

  Json reply = Json::object();
  reply.set("id", Json::number(static_cast<double>(req.id)));
  reply.set("track", Json::str(track));

  // Request-scoped state: its own trace track and its own jobs budget.
  trace::TrackScope track_scope(track);
  core::JobsScope jobs_scope(req.jobs != 0 ? req.jobs : default_jobs_);

  core::RunInfo info;
  info.input = req.design_path.empty() ? track : req.design_path;

  auto fail = [&](const std::string& error, const std::string& failed_pass,
                  const core::FlowReport& flow) {
    reply.set("ok", Json::boolean(false));
    reply.set("error", Json::str(error));
    if (!failed_pass.empty()) {
      reply.set("failed_pass", Json::str(failed_pass));
    }
    if (req.report != ReportMode::kNone) {
      reply.set("report", core::errorReport(info, error, failed_pass, flow));
    }
    reply.set("service_ms", Json::number(msSince(begin)));
    return reply;
  };

  try {
    netlist::Design design;
    if (!req.design_path.empty()) {
      netlist::readVerilogFile(design, req.design_path, gatefile_, {},
                               req.top);
    } else {
      netlist::readVerilog(design, req.design, gatefile_, {}, req.top);
    }
    netlist::Module* module = &design.top();
    if (!req.top.empty()) {
      netlist::Module* named = design.findModule(req.top);
      if (named == nullptr) {
        return fail("top module '" + req.top + "' not found", "", {});
      }
      module = named;
    }

    info.cells_in = module->numCells();
    core::DesyncResult result = core::desynchronize(
        design, *module, gatefile_, flowOptions(req));
    info.cells_out = module->numCells();
    info.nets_out = module->numNets();

    reply.set("ok", Json::boolean(true));
    reply.set("cells_in", Json::number(static_cast<double>(info.cells_in)));
    reply.set("cells_out",
              Json::number(static_cast<double>(info.cells_out)));
    reply.set("regions",
              Json::number(static_cast<double>(result.regions.n_groups)));
    reply.set("ffs_replaced", Json::number(static_cast<double>(
                                  result.substitution.ffs_replaced)));
    if (req.want_verilog) {
      reply.set("verilog", Json::str(netlist::writeVerilog(design)));
    }
    if (req.want_sdc) {
      reply.set("sdc", Json::str(result.sdc.toText()));
    }
    if (req.report == ReportMode::kFull) {
      reply.set("report", core::runReport(info, result));
    } else if (req.report == ReportMode::kCanonical) {
      reply.set("report", core::canonicalRunReport(info, result));
    }
    reply.set("service_ms", Json::number(msSince(begin)));
    return reply;
  } catch (const core::FlowError& e) {
    return fail(e.what(), e.pass(), e.flow());
  } catch (const std::exception& e) {
    return fail(e.what(), "", {});
  }
}

}  // namespace desync::server
