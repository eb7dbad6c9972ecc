#include "server/protocol.h"

#include <sys/uio.h>

#include <cerrno>
#include <cmath>

namespace desync::server {

using util::Json;

namespace {

[[noreturn]] void bad(const std::string& what) { throw ProtocolError(what); }

ReportMode parseReportMode(const std::string& text) {
  if (text == "none") return ReportMode::kNone;
  if (text == "full") return ReportMode::kFull;
  if (text == "canonical") return ReportMode::kCanonical;
  bad("unknown report mode '" + text +
      "' (expected \"none\", \"full\" or \"canonical\")");
}

const char* reportModeName(ReportMode mode) {
  switch (mode) {
    case ReportMode::kNone: return "none";
    case ReportMode::kFull: return "full";
    case ReportMode::kCanonical: return "canonical";
  }
  return "?";
}

/// The request `id`, range-checked before the cast: a non-negative integer
/// no larger than 2^53, past which doubles stop counting by one.
std::uint64_t idField(const Json& doc) {
  const double id = doc.getNumber("id", 0);
  if (!(id >= 0 && id <= 9007199254740992.0) || id != std::trunc(id)) {
    bad("'id' must be an integer in 0..2^53");
  }
  return static_cast<std::uint64_t>(id);
}

}  // namespace

Message parseMessage(const std::string& line) {
  const Json doc = Json::parse(line);
  if (!doc.isObject()) bad("request must be a JSON object");

  Message msg;
  msg.cmd = doc.getString("cmd", "desync");
  msg.request.id = idField(doc);
  if (msg.cmd == "ping" || msg.cmd == "stats" || msg.cmd == "shutdown") {
    return msg;
  }
  if (msg.cmd != "desync") bad("unknown cmd '" + msg.cmd + "'");

  Request& req = msg.request;
  req.name = doc.getString("name", "");
  req.design = doc.getString("design", "");
  req.design_path = doc.getString("design_path", "");
  if (req.design.empty() == req.design_path.empty()) {
    bad("exactly one of 'design' (inline Verilog) or 'design_path' is "
        "required");
  }
  req.top = doc.getString("top", "");
  req.jobs = doc.getInt("jobs", 0);
  if (req.jobs < 0 || req.jobs > 1024) {
    bad("'jobs' must be in 0..1024");
  }

  req.reset_port = doc.getString("reset_port", "");
  req.reset_active_low = doc.getBool("reset_active_low", false);
  req.group = doc.getString("group", "");
  if (const Json* fp = doc.find("false_paths")) {
    for (const Json& net : fp->asArray()) {
      req.false_paths.push_back(net.asString());
    }
  }
  req.margin = doc.getNumber("margin", req.margin);
  if (!(req.margin >= 0.0)) bad("'margin' must be non-negative");
  req.mux_taps = doc.getInt("mux_taps", 0);
  if (req.mux_taps != 0 && req.mux_taps != 2 && req.mux_taps != 4 &&
      req.mux_taps != 8) {
    bad("'mux_taps' must be 0, 2, 4 or 8");
  }
  req.bus_heuristic = doc.getBool("bus_heuristic", true);
  req.clean_logic = doc.getBool("clean_logic", true);

  req.want_verilog = doc.getBool("verilog", true);
  req.want_sdc = doc.getBool("sdc", true);
  req.report = parseReportMode(doc.getString("report", "full"));
  return msg;
}

std::string requestLine(const Request& req) {
  Json doc = Json::object();
  doc.set("id", Json::number(static_cast<double>(req.id)));
  if (!req.name.empty()) doc.set("name", Json::str(req.name));
  if (!req.design.empty()) doc.set("design", Json::str(req.design));
  if (!req.design_path.empty()) {
    doc.set("design_path", Json::str(req.design_path));
  }
  if (!req.top.empty()) doc.set("top", Json::str(req.top));
  if (req.jobs != 0) doc.set("jobs", Json::number(req.jobs));
  if (!req.reset_port.empty()) {
    doc.set("reset_port", Json::str(req.reset_port));
  }
  if (req.reset_active_low) doc.set("reset_active_low", Json::boolean(true));
  if (!req.group.empty()) doc.set("group", Json::str(req.group));
  if (!req.false_paths.empty()) {
    Json nets = Json::array();
    for (const std::string& net : req.false_paths) nets.push(Json::str(net));
    doc.set("false_paths", std::move(nets));
  }
  if (req.margin != 0.10) doc.set("margin", Json::number(req.margin));
  if (req.mux_taps != 0) doc.set("mux_taps", Json::number(req.mux_taps));
  if (!req.bus_heuristic) doc.set("bus_heuristic", Json::boolean(false));
  if (!req.clean_logic) doc.set("clean_logic", Json::boolean(false));
  if (!req.want_verilog) doc.set("verilog", Json::boolean(false));
  if (!req.want_sdc) doc.set("sdc", Json::boolean(false));
  if (req.report != ReportMode::kFull) {
    doc.set("report", Json::str(reportModeName(req.report)));
  }
  return doc.dump();
}

bool writeLine(int fd, std::string_view line) {
  char newline = '\n';
  iovec iov[2] = {{const_cast<char*>(line.data()), line.size()},
                  {&newline, 1}};
  iovec* next = iov;
  int count = 2;
  while (count > 0) {
    const ssize_t n = ::writev(fd, next, count);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    // Skip what was written: whole buffers first, then into the next one.
    auto left = static_cast<std::size_t>(n);
    while (count > 0 && left >= next->iov_len) {
      left -= next->iov_len;
      ++next;
      --count;
    }
    if (count > 0) {
      next->iov_base = static_cast<char*>(next->iov_base) + left;
      next->iov_len -= left;
    }
  }
  return true;
}

}  // namespace desync::server
