// drdesyncd wire protocol: JSON-lines request/reply framing.
//
// One request object per line in, one reply object per line out (replies
// carry the request's `id` and may arrive out of order when the daemon
// runs several handler threads).  The full field reference lives in
// docs/server.md; this header is the single in-code source of truth both
// the daemon and the drdesync-bench client compile against.
//
//   {"id": 7, "design": "module m(...); ... endmodule", "jobs": 2,
//    "reset_port": "rst_n", "reset_active_low": true, "report": "canonical"}
//   -> {"id": 7, "ok": true, "verilog": "...", "sdc": "...",
//       "canonical_report": {...}, "queue_ms": 0.1, "service_ms": 42.0}
//
// Control commands ride the same framing: {"cmd": "ping"} /
// {"cmd": "stats"} / {"cmd": "shutdown"}.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"

namespace desync::server {

/// How much of the run report the reply should embed.
enum class ReportMode {
  kNone,       ///< no report object
  kFull,       ///< runReport: design facts + per-pass flow statistics
  kCanonical,  ///< canonicalRunReport: deterministic design facts only
};

/// One desynchronization request (cmd == "desync", the default).
struct Request {
  std::uint64_t id = 0;     ///< echoed in the reply (client-chosen)
  std::string name;         ///< report/trace label (default "req-<id>")
  std::string design;       ///< inline gate-level Verilog text...
  std::string design_path;  ///< ...or a server-readable file path
  std::string top;          ///< top module (default: last module parsed)
  int jobs = 0;             ///< per-request worker budget (0 = server default)

  // Flow options (mirroring the drdesync flags of the same names).
  std::string reset_port;
  bool reset_active_low = false;
  std::string group;  ///< manual region spec "p1,p2;p3"
  std::vector<std::string> false_paths;
  double margin = 0.10;
  int mux_taps = 0;
  bool bus_heuristic = true;
  bool clean_logic = true;

  // Reply shaping.
  bool want_verilog = true;
  bool want_sdc = true;
  ReportMode report = ReportMode::kFull;
};

/// Parsed wire message: either a desync Request or a control command.
struct Message {
  std::string cmd;  ///< "desync", "ping", "stats" or "shutdown"
  Request request;  ///< valid when cmd == "desync"
};

/// Parses one request line.  Throws util::JsonError (malformed JSON or
/// fields of the wrong type) or ProtocolError (well-formed JSON violating the
/// protocol: unknown cmd, missing design, bad ranges).
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};
[[nodiscard]] Message parseMessage(const std::string& line);

/// Serializes a Request as its wire line (used by drdesync-bench).
[[nodiscard]] std::string requestLine(const Request& req);

/// Writes `line` and its framing '\n' to `fd` in one writev, without
/// copying the line; short writes and EINTR are retried.  Returns false,
/// with errno set, when the write fails (peer gone).
bool writeLine(int fd, std::string_view line);

}  // namespace desync::server
