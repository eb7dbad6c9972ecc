// drdesyncd server tests: the JSON wire layer, the request protocol, the
// FlowService request isolation and — the flagship — byte-identical
// replies for concurrent socket requests versus a sequential reference
// run at mixed per-request jobs budgets.
//
// This suite is also compiled under ThreadSanitizer as server_test_tsan
// (see tests/CMakeLists.txt) with DESYNC_SERVER_TEST_LIGHT defined, which
// drops the DLX design from the concurrency workload to keep the
// instrumented run bounded; keep new tests free of benign-but-racy idioms.
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "designs/cpu.h"
#include "fuzz/generator.h"
#include "netlist/verilog.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/service.h"
#include "util/json.h"
#include "util/rng.h"

namespace server = desync::server;
namespace fuzz = desync::fuzz;
namespace designs = desync::designs;
namespace netlist = desync::netlist;
namespace util = desync::util;

namespace {

std::string testSocketPath(const char* tag) {
  return "/tmp/desync-server-test-" + std::string(tag) + "-" +
         std::to_string(static_cast<long>(::getpid())) + ".sock";
}

server::ServiceOptions builtinService() {
  server::ServiceOptions opt;
  opt.lib = "builtin:hs";
  return opt;
}

/// A desync request for generator seed `seed` (rst_n active-low is the
/// generator contract), asking for the deterministic canonical report.
server::Request seedRequest(const server::FlowService& service,
                            std::uint64_t seed) {
  server::Request req;
  req.name = "seed-" + std::to_string(seed);
  req.design = fuzz::generateVerilog(service.gatefile(), seed, {});
  req.reset_port = "rst_n";
  req.reset_active_low = true;
  req.report = server::ReportMode::kCanonical;
  return req;
}

}  // namespace

// --- JSON layer ----------------------------------------------------------

TEST(ServerJson, ParseDumpRoundTrip) {
  const std::string line =
      R"({"id": 7, "ok": true, "ratio": 0.5, "tags": ["a", "b"], )"
      R"("nested": {"n": null}})";
  const util::Json v = util::Json::parse(line);
  EXPECT_EQ(v.getInt("id", -1), 7);
  EXPECT_TRUE(v.getBool("ok", false));
  EXPECT_EQ(v.getNumber("ratio", 0.0), 0.5);
  ASSERT_NE(v.find("tags"), nullptr);
  EXPECT_EQ(v.find("tags")->asArray().size(), 2u);
  EXPECT_TRUE(v.find("nested")->find("n")->isNull());
  // dump() re-parses to the same document.
  EXPECT_EQ(util::Json::parse(v.dump()).dump(), v.dump());
}

TEST(ServerJson, StringEscapesDecodeAndReEncode) {
  const util::Json v =
      util::Json::parse(R"({"s": "a\n\t\"\\ é 😀"})");
  const std::string s = v.getString("s", "");
  EXPECT_NE(s.find('\n'), std::string::npos);
  EXPECT_NE(s.find("\xC3\xA9"), std::string::npos);      // é in UTF-8
  EXPECT_NE(s.find("\xF0\x9F\x98\x80"), std::string::npos);  // emoji
  // The dump is one line even though the payload has a newline.
  EXPECT_EQ(v.dump().find('\n'), std::string::npos);
  EXPECT_EQ(util::Json::parse(v.dump()).getString("s", ""), s);
}

TEST(ServerJson, MalformedInputsThrow) {
  EXPECT_THROW(util::Json::parse("{"), util::JsonError);
  EXPECT_THROW(util::Json::parse("{} garbage"), util::JsonError);
  EXPECT_THROW(util::Json::parse(R"({"a": 1,})"), util::JsonError);
  EXPECT_THROW(util::Json::parse(R"("unterminated)"), util::JsonError);
  EXPECT_THROW(util::Json::parse(R"("\q")"), util::JsonError);
  EXPECT_THROW(util::Json::parse("1e999"), util::JsonError);
  EXPECT_THROW(util::Json::parse(R"("\ud800")"), util::JsonError);
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  EXPECT_THROW(util::Json::parse(deep), util::JsonError);
}

TEST(ServerJson, GetIntRejectsFractions) {
  const util::Json v = util::Json::parse(R"({"jobs": 2.5})");
  EXPECT_THROW((void)v.getInt("jobs", 0), util::JsonError);
}

TEST(ServerJson, NumbersDumpShortestAndRoundTripExactly) {
  for (const double v : {0.1, 1.0 / 3, 1e-7, 9007199254740992.0, -2.5, 42.0}) {
    const double back = util::Json::parse(util::Json::number(v).dump())
                            .asNumber();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(v))
        << util::Json::number(v).dump();
  }
  EXPECT_EQ(util::Json::number(42).dump(), "42");
  EXPECT_EQ(util::Json::number(0.1).dump(), "0.1");
  EXPECT_EQ(util::Json::number(3.21).dump(), "3.21");
}

namespace {

/// The per-byte escaper the writer used before it copied runs in bulk,
/// kept as the reference escapeTo must match byte for byte.
std::string referenceEscape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Strings that stress the run boundaries: every byte alone and between
/// two runs, runs ending at an escape or at the end, long unescaped runs,
/// quote and backslash clusters, and random byte soup.
std::vector<std::string> escapeCorpus() {
  std::vector<std::string> out = {"", "\"\"\\\\", "\\\"", "a\"", "\"a"};
  std::string all;
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    all += c;
    out.emplace_back(1, c);
    out.push_back(std::string("run") + c + "run");
    out.push_back(std::string(40, 'x') + c);
    out.push_back(c + std::string(40, 'y'));
  }
  out.push_back(all);
  out.push_back(std::string(20000, 'r'));
  out.push_back(std::string(5000, 'r') + '"' + std::string(5000, 's') + '\\');
  out.push_back(std::string(3000, 'r') + "\n\t\x01\x1f\x7f\xff" +
                std::string(3000, 's'));
  util::Rng rng{21};
  static constexpr char kHot[] = {'"',  '\\',   '\n', '\r',
                                  '\t', '\0', '\x1f', 'a'};
  for (int i = 0; i < 500; ++i) {
    std::string s;
    const int len = rng.range(0, 300);
    for (int k = 0; k < len; ++k) {
      s += rng.chance(30) ? kHot[rng.below(sizeof kHot)]
                          : static_cast<char>(rng.below(256));
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

TEST(ServerJson, EscapeMatchesThePerByteReferenceAndRoundTrips) {
  for (const std::string& s : escapeCorpus()) {
    std::string out = "prefix";
    util::escapeTo(out, s);
    ASSERT_EQ(out, "prefix" + referenceEscape(s)) << "length " << s.size();

    const util::Json str = util::Json::str(s);
    ASSERT_EQ(str.dump(), '"' + referenceEscape(s) + '"');
    ASSERT_EQ(util::Json::parse(str.dump()).asString(), s);

    // Keys take the same path.
    util::Json obj = util::Json::object();
    obj.set(s, util::Json::str(s));
    const util::Json back = util::Json::parse(obj.dump());
    ASSERT_EQ(back.asObject().size(), 1u);
    EXPECT_EQ(back.asObject()[0].first, s);
    EXPECT_EQ(back.asObject()[0].second.asString(), s);
  }
}

// Every wire input a client could use to reach undefined behaviour or an
// invalid value must be rejected with an exception, never cast or stored.
TEST(ServerJson, HostileRequestInputsAreRejected) {
  const char* const kInputs[] = {
      R"({"design": "m", "jobs": 1e10})",     // int cast out of range
      R"({"design": "m", "jobs": -1e10})",
      R"({"design": "m", "mux_taps": 1e300})",
      R"({"design": "m", "id": 1e30})",       // uint64 cast out of range
      R"({"design": "m", "id": -1})",
      R"({"design": "m", "id": 1.5})",
      R"({"cmd": "ping", "id": -1})",        // control ids are checked too
      R"({"cmd": "stats", "id": 1e30})",
      R"({"cmd": "shutdown", "id": -3})",
      R"({"design": "m", "jobs": +1})",      // RFC 8259 number grammar
      R"({"design": "m", "jobs": 01})",
      R"({"design": "m", "jobs": 1.})",
      R"({"design": "m", "margin": .5})",
      R"({"design": "m", "margin": -})",
      R"({"design": "m", "margin": 1e})",
      R"({"design": "m", "margin": 1e+})",
      R"({"design": "m", "name": "\udc00"})",  // lone low surrogate
      R"({"design": "m", "name": "\ud800x"})",  // lone high surrogate
  };
  for (const char* input : kInputs) {
    EXPECT_THROW((void)server::parseMessage(input), std::runtime_error)
        << input;
  }
  // The grammar's valid edge forms still parse.
  for (const char* ok : {"0", "-0", "0.5", "-1.25e-3", "1E+2", "10"}) {
    EXPECT_NO_THROW((void)util::Json::parse(ok)) << ok;
  }
}

// --- protocol ------------------------------------------------------------

TEST(ServerProtocol, RequestLineRoundTrips) {
  server::Request req;
  req.id = 12;
  req.name = "dlx-run";
  req.design = "module m(); endmodule\n";
  req.top = "m";
  req.jobs = 3;
  req.reset_port = "rst_n";
  req.reset_active_low = true;
  req.group = "pc_,ifid_;idex_";
  req.false_paths = {"scan_en", "dbg"};
  req.margin = 0.25;
  req.mux_taps = 4;
  req.bus_heuristic = false;
  req.clean_logic = false;
  req.want_verilog = false;
  req.want_sdc = false;
  req.report = server::ReportMode::kCanonical;

  const server::Message msg = server::parseMessage(server::requestLine(req));
  ASSERT_EQ(msg.cmd, "desync");
  const server::Request& back = msg.request;
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.name, req.name);
  EXPECT_EQ(back.design, req.design);
  EXPECT_EQ(back.top, req.top);
  EXPECT_EQ(back.jobs, req.jobs);
  EXPECT_EQ(back.reset_port, req.reset_port);
  EXPECT_EQ(back.reset_active_low, req.reset_active_low);
  EXPECT_EQ(back.group, req.group);
  EXPECT_EQ(back.false_paths, req.false_paths);
  EXPECT_EQ(back.margin, req.margin);
  EXPECT_EQ(back.mux_taps, req.mux_taps);
  EXPECT_EQ(back.bus_heuristic, req.bus_heuristic);
  EXPECT_EQ(back.clean_logic, req.clean_logic);
  EXPECT_EQ(back.want_verilog, req.want_verilog);
  EXPECT_EQ(back.want_sdc, req.want_sdc);
  EXPECT_EQ(back.report, req.report);
}

TEST(ServerProtocol, ControlCommandsParse) {
  EXPECT_EQ(server::parseMessage(R"({"cmd": "ping", "id": 3})").cmd, "ping");
  EXPECT_EQ(server::parseMessage(R"({"cmd": "stats"})").cmd, "stats");
  EXPECT_EQ(server::parseMessage(R"({"cmd": "shutdown"})").cmd, "shutdown");
}

TEST(ServerProtocol, InvalidRequestsAreRejected) {
  using server::parseMessage;
  using server::ProtocolError;
  // Neither or both design sources.
  EXPECT_THROW(parseMessage(R"({"id": 1})"), ProtocolError);
  EXPECT_THROW(parseMessage(R"({"design": "m", "design_path": "p"})"),
               ProtocolError);
  EXPECT_THROW(parseMessage(R"({"cmd": "explode"})"), ProtocolError);
  EXPECT_THROW(parseMessage(R"({"design": "m", "jobs": -1})"),
               ProtocolError);
  EXPECT_THROW(parseMessage(R"({"design": "m", "jobs": 9999})"),
               ProtocolError);
  EXPECT_THROW(parseMessage(R"({"design": "m", "mux_taps": 3})"),
               ProtocolError);
  EXPECT_THROW(parseMessage(R"({"design": "m", "margin": -0.5})"),
               ProtocolError);
  EXPECT_THROW(parseMessage(R"({"design": "m", "report": "verbose"})"),
               ProtocolError);
  // Malformed JSON surfaces as JsonError, not ProtocolError.
  EXPECT_THROW(parseMessage("{oops"), util::JsonError);
}

// --- FlowService ---------------------------------------------------------

TEST(FlowService, HandlesAGeneratedDesign) {
  server::FlowService service(builtinService());
  server::Request req = seedRequest(service, 3);
  req.id = 9;
  const util::Json reply = service.handle(req);
  EXPECT_TRUE(reply.getBool("ok", false)) << reply.dump();
  EXPECT_EQ(reply.getInt("id", -1), 9);
  EXPECT_EQ(reply.getString("track", ""), "seed-3");
  EXPECT_GT(reply.getInt("cells_out", 0), reply.getInt("cells_in", 0));
  EXPECT_FALSE(reply.getString("verilog", "").empty());
  EXPECT_FALSE(reply.getString("sdc", "").empty());
  ASSERT_NE(reply.find("report"), nullptr);
  EXPECT_GE(reply.getNumber("service_ms", -1.0), 0.0);
  // The whole reply frames as one JSON line (report object embedded).
  const std::string line = reply.dump();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const util::Json parsed = util::Json::parse(line);
  EXPECT_GT(parsed.find("report")->getInt("regions", -1), 0);
}

TEST(FlowService, FlowFailureBecomesAnErrorReply) {
  server::FlowService service(builtinService());
  server::Request req;
  req.id = 4;
  req.design = "this is not verilog";
  const util::Json reply = service.handle(req);
  EXPECT_FALSE(reply.getBool("ok", true));
  EXPECT_FALSE(reply.getString("error", "").empty());
  // The error report (CLI --report shape) rides along for the default
  // "full" report mode, as one line.
  ASSERT_NE(reply.find("report"), nullptr);
  EXPECT_EQ(reply.dump().find('\n'), std::string::npos);
}

TEST(FlowService, MissingTopModuleIsAReplyNotACrash) {
  server::FlowService service(builtinService());
  server::Request req = seedRequest(service, 1);
  req.top = "no_such_module";
  const util::Json reply = service.handle(req);
  EXPECT_FALSE(reply.getBool("ok", true));
  EXPECT_NE(reply.getString("error", "").find("no_such_module"),
            std::string::npos);
}

TEST(FlowService, RepliesAreIdenticalAtAnyJobsBudget) {
  server::FlowService service(builtinService());
  server::Request req = seedRequest(service, 5);
  req.jobs = 1;
  const util::Json serial = service.handle(req);
  req.jobs = 4;
  const util::Json pooled = service.handle(req);
  ASSERT_TRUE(serial.getBool("ok", false)) << serial.dump();
  ASSERT_TRUE(pooled.getBool("ok", false)) << pooled.dump();
  EXPECT_EQ(serial.getString("verilog", "a"), pooled.getString("verilog", "b"));
  EXPECT_EQ(serial.getString("sdc", "a"), pooled.getString("sdc", "b"));
  EXPECT_EQ(serial.find("report")->dump(), pooled.find("report")->dump());
}

// --- stream transport ----------------------------------------------------

TEST(ServerStream, ControlCommandsAnswerInline) {
  server::ServerOptions opt;
  opt.service = builtinService();
  opt.handlers = 1;
  server::Server srv(opt);
  srv.start();
  std::istringstream in(
      "{\"cmd\": \"ping\", \"id\": 1}\n"
      "not json at all\n"
      "{\"cmd\": \"stats\", \"id\": 2}\n"
      "{\"cmd\": \"shutdown\", \"id\": 3}\n");
  std::ostringstream out;
  srv.serveStream(in, out);
  srv.stop();

  std::istringstream replies(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(replies, line));
  EXPECT_TRUE(util::Json::parse(line).getBool("pong", false));
  ASSERT_TRUE(std::getline(replies, line));
  EXPECT_FALSE(util::Json::parse(line).getBool("ok", true));
  ASSERT_TRUE(std::getline(replies, line));
  EXPECT_EQ(util::Json::parse(line).getInt("rejected", -1), 1);
  ASSERT_TRUE(std::getline(replies, line));
  EXPECT_TRUE(util::Json::parse(line).getBool("shutting_down", false));
  EXPECT_EQ(srv.stats().rejected, 1u);
}

TEST(ServerStream, DesyncRequestsAreServedWithQueueTiming) {
  server::ServerOptions opt;
  opt.service = builtinService();
  opt.handlers = 2;
  server::Server srv(opt);
  srv.start();
  server::FlowService reference(builtinService());
  server::Request req = seedRequest(reference, 2);
  req.id = 1;
  std::istringstream in(server::requestLine(req) + "\n");
  std::ostringstream out;
  srv.serveStream(in, out);
  srv.stop();

  const util::Json reply = util::Json::parse(
      out.str().substr(0, out.str().find('\n')));
  EXPECT_TRUE(reply.getBool("ok", false)) << reply.dump();
  EXPECT_GE(reply.getNumber("queue_ms", -1.0), 0.0);
  EXPECT_EQ(srv.stats().completed, 1u);
}

// --- the determinism contract over the socket ----------------------------

TEST(ServerSocket, ConcurrentRequestsMatchSequentialReference) {
  // Reference replies, computed sequentially in-process.
  server::FlowService reference(builtinService());
  std::vector<server::Request> requests;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    requests.push_back(seedRequest(reference, seed));
  }
#ifndef DESYNC_SERVER_TEST_LIGHT
  {
    // The paper's DLX case study rides along in the full build: a real
    // multi-region pipeline, much deeper than the generator designs.
    desync::netlist::Design dlx;
    designs::buildCpu(dlx, reference.gatefile(), designs::dlxConfig());
    server::Request req;
    req.name = "dlx";
    req.design = netlist::writeVerilog(dlx);
    req.reset_port = "rst_n";
    req.reset_active_low = true;
    req.report = server::ReportMode::kCanonical;
    requests.push_back(std::move(req));
  }
#endif
  struct Expected {
    std::string verilog, sdc, report;
  };
  std::vector<Expected> expected;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    server::Request req = requests[i];
    req.id = i;
    req.jobs = 1;  // exact serial reference
    const util::Json reply = reference.handle(req);
    ASSERT_TRUE(reply.getBool("ok", false))
        << requests[i].name << ": " << reply.dump();
    expected.push_back(Expected{reply.getString("verilog", ""),
                                reply.getString("sdc", ""),
                                reply.find("report")->dump()});
  }

  // The same workload through a live socket server: 4 handler threads,
  // 4 client connections, every request repeated at jobs 1..4 decided by
  // the global send index, all in flight at once.
  server::ServerOptions opt;
  opt.service = builtinService();
  opt.handlers = 4;
  opt.socket_path = testSocketPath("conc");
  server::Server srv(opt);
  srv.start();

  const std::size_t total = requests.size() * 2;
  std::atomic<std::size_t> cursor{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      server::Client client(opt.socket_path);
      for (;;) {
        const std::size_t i = cursor.fetch_add(1);
        if (i >= total) break;
        const std::size_t item = i % requests.size();
        server::Request req = requests[item];
        req.id = i;
        req.jobs = 1 + static_cast<int>(i % 4);
        client.sendLine(server::requestLine(req));
        const util::Json reply = util::Json::parse(client.recvLine());
        if (!reply.getBool("ok", false) ||
            reply.getInt("id", -1) != static_cast<int>(i) ||
            reply.getString("verilog", "") != expected[item].verilog ||
            reply.getString("sdc", "") != expected[item].sdc ||
            reply.find("report") == nullptr ||
            reply.find("report")->dump() != expected[item].report) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const server::ServerStats stats = srv.stats();
  EXPECT_EQ(stats.received, total);
  EXPECT_EQ(stats.completed, total);
  EXPECT_EQ(stats.failed, 0u);
  srv.stop();
}
