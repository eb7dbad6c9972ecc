// drdesync-bench — batch client and throughput benchmark for drdesyncd.
//
// Replays N designs (generator seeds and/or Verilog files) through a
// drdesyncd server — an external one via --connect, or an in-process one
// it spawns itself — from C concurrent client connections, then reports
// throughput (designs/sec) and p50/p95/p99 latency into BENCH_server.json.
// With --verify every reply is compared byte-for-byte (converted Verilog,
// SDC, canonical report) against a sequential in-process reference run,
// which is exactly the determinism contract the server promises.
//
//   drdesync-bench --designs 50 --concurrency 8 --workers 4 --verify
//   drdesync-bench --connect /tmp/drdesync.sock --designs 100
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.h"
#include "core/version.h"
#include "fuzz/generator.h"
#include "server/client.h"
#include "server/server.h"
#include "util/json.h"

using namespace desync;

namespace {

void usage() {
  // One flag per line; tools/check_docs.sh cross-checks this text and
  // docs/cli.md against the parser, so a new flag cannot ship undocumented.
  std::fputs(
      "usage: drdesync-bench [--connect SOCKET | --workers N] [options...]\n"
      "                                            (full docs: docs/server.md)\n"
      "\n"
      "server:\n"
      "  --connect SOCKET   replay against an already-running drdesyncd\n"
      "                     (default: spawn an in-process server)\n"
      "  --lib <file.lib|builtin:hs|builtin:ll>  Liberty library; must match\n"
      "                     the daemon's with --connect (default builtin:hs)\n"
      "  --workers N        in-process server handler threads (default 2)\n"
      "  --socket PATH      in-process server socket path (default: a\n"
      "                     per-process path under /tmp)\n"
      "\n"
      "workload:\n"
      "  --designs N        generator designs, seeds S..S+N-1 (default 50)\n"
      "  --seed S           first generator seed (default 1)\n"
      "  --design FILE      replay a Verilog netlist file too (repeatable)\n"
      "  --reset-port NAME  reset port for --design files (default rst_n,\n"
      "                     the generator contract)\n"
      "  --reset-active-high  reset for --design files is active-high\n"
      "  --jobs N           per-request worker budget, 0 = server default\n"
      "  --concurrency C    concurrent client connections (default 4)\n"
      "  --repeat R         send each design R times (default 1)\n"
      "  --warmup W         untimed passes over the set first (default 0)\n"
      "\n"
      "results:\n"
      "  --verify           compare every reply against a sequential\n"
      "                     in-process reference run (byte-identical\n"
      "                     Verilog, SDC and canonical report)\n"
      "  --out FILE         results JSON (default BENCH_server.json)\n"
      "  --version          print the tool version\n"
      "  --help, -h         this message\n",
      stderr);
}

struct WorkItem {
  std::string name;
  server::Request request;  ///< id is assigned per send
};

struct Sample {
  std::size_t item = 0;
  double latency_ms = 0.0;
  bool ok = false;
  std::string error;
  std::string verilog, sdc, report;  ///< reply payloads (for --verify)
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// One client connection replaying items until the shared cursor runs out.
void clientLoop(const std::string& socket_path,
                const std::vector<WorkItem>& items, int repeat,
                std::atomic<std::size_t>& cursor,
                std::vector<Sample>& samples, std::mutex& samples_mutex,
                bool keep_payloads) {
  server::Client client(socket_path);
  const std::size_t total = items.size() * static_cast<std::size_t>(repeat);
  std::vector<Sample> local;
  for (;;) {
    const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
    if (i >= total) break;
    const WorkItem& item = items[i % items.size()];
    server::Request req = item.request;
    req.id = i + 1;
    Sample s;
    s.item = i % items.size();
    const auto begin = std::chrono::steady_clock::now();
    client.sendLine(server::requestLine(req));
    const std::string reply_line = client.recvLine();
    s.latency_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - begin)
                       .count();
    const util::Json reply = util::Json::parse(reply_line);
    s.ok = reply.getBool("ok", false);
    if (!s.ok) {
      s.error = reply.getString("error", "(no error message)");
    } else if (keep_payloads) {
      s.verilog = reply.getString("verilog", "");
      s.sdc = reply.getString("sdc", "");
      if (const util::Json* rep = reply.find("report")) {
        s.report = rep->dump();
      }
    }
    local.push_back(std::move(s));
  }
  std::lock_guard<std::mutex> lock(samples_mutex);
  for (Sample& s : local) samples.push_back(std::move(s));
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect_path, socket_path, out_path = "BENCH_server.json";
  server::ServerOptions srv_opt;
  std::vector<std::string> design_files;
  std::string file_reset_port = "rst_n";
  bool file_reset_active_low = true;
  int n_designs = 50, concurrency = 4, repeat = 1, warmup = 0, jobs = 0;
  std::uint64_t seed = 1;
  bool verify = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--connect") {
      connect_path = next();
    } else if (arg == "--lib") {
      srv_opt.service.lib = next();
    } else if (arg == "--workers") {
      srv_opt.handlers = std::atoi(next().c_str());
    } else if (arg == "--socket") {
      socket_path = next();
    } else if (arg == "--designs") {
      n_designs = std::atoi(next().c_str());
    } else if (arg == "--seed") {
      seed = static_cast<std::uint64_t>(std::atoll(next().c_str()));
    } else if (arg == "--design") {
      design_files.push_back(next());
    } else if (arg == "--reset-port") {
      file_reset_port = next();
    } else if (arg == "--reset-active-high") {
      file_reset_active_low = false;
    } else if (arg == "--jobs") {
      jobs = std::atoi(next().c_str());
    } else if (arg == "--concurrency") {
      concurrency = std::atoi(next().c_str());
    } else if (arg == "--repeat") {
      repeat = std::atoi(next().c_str());
    } else if (arg == "--warmup") {
      warmup = std::atoi(next().c_str());
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--version") {
      std::printf("drdesync-bench %s\n",
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
  if (n_designs < 0 || concurrency < 1 || repeat < 1 || warmup < 0) {
    std::fputs("drdesync-bench: invalid workload sizes\n", stderr);
    return 2;
  }

  try {
    // The workload is generated locally, so the bench needs its own view
    // of the library even against an external daemon (--lib must match).
    server::FlowService reference({srv_opt.service.lib, 0});

    std::vector<WorkItem> items;
    for (int d = 0; d < n_designs; ++d) {
      WorkItem item;
      const std::uint64_t s = seed + static_cast<std::uint64_t>(d);
      item.name = "seed-" + std::to_string(s);
      item.request.name = item.name;
      item.request.design =
          fuzz::generateVerilog(reference.gatefile(), s, {});
      item.request.reset_port = "rst_n";
      item.request.reset_active_low = true;
      items.push_back(std::move(item));
    }
    for (const std::string& path : design_files) {
      std::ifstream in(path);
      if (!in) {
        std::fprintf(stderr, "drdesync-bench: cannot read %s\n",
                     path.c_str());
        return 2;
      }
      std::ostringstream text;
      text << in.rdbuf();
      WorkItem item;
      item.name = path;
      item.request.name = path;
      item.request.design = text.str();
      item.request.reset_port = file_reset_port;
      item.request.reset_active_low = file_reset_active_low;
      items.push_back(std::move(item));
    }
    if (items.empty()) {
      std::fputs("drdesync-bench: nothing to replay\n", stderr);
      return 2;
    }
    for (WorkItem& item : items) {
      item.request.jobs = jobs;
      item.request.report = server::ReportMode::kCanonical;
    }

    // In-process server unless --connect names an external daemon.
    std::unique_ptr<server::Server> local;
    std::string target = connect_path;
    if (target.empty()) {
      if (socket_path.empty()) {
        socket_path = "/tmp/drdesync-bench-" +
                      std::to_string(static_cast<long>(::getpid())) +
                      ".sock";
      }
      srv_opt.socket_path = socket_path;
      local = std::make_unique<server::Server>(srv_opt);
      local->start();
      target = socket_path;
    }

    // Sequential reference replies, computed before the clock starts.
    std::vector<std::string> ref_verilog(items.size()), ref_sdc(items.size()),
        ref_report(items.size());
    if (verify) {
      for (std::size_t i = 0; i < items.size(); ++i) {
        server::Request req = items[i].request;
        req.id = i + 1;
        const util::Json reply = reference.handle(req);
        if (!reply.getBool("ok", false)) {
          std::fprintf(stderr,
                       "drdesync-bench: reference run of %s failed: %s\n",
                       items[i].name.c_str(),
                       reply.getString("error", "?").c_str());
          return 1;
        }
        ref_verilog[i] = reply.getString("verilog", "");
        ref_sdc[i] = reply.getString("sdc", "");
        if (const util::Json* rep = reply.find("report")) {
          ref_report[i] = rep->dump();
        }
      }
    }

    for (int w = 0; w < warmup; ++w) {
      std::atomic<std::size_t> cursor{0};
      std::vector<Sample> sink;
      std::mutex sink_mutex;
      std::vector<std::thread> threads;
      for (int c = 0; c < concurrency; ++c) {
        threads.emplace_back([&] {
          clientLoop(target, items, 1, cursor, sink, sink_mutex, false);
        });
      }
      for (std::thread& t : threads) t.join();
    }

    std::atomic<std::size_t> cursor{0};
    std::vector<Sample> samples;
    std::mutex samples_mutex;
    std::vector<std::thread> threads;
    const auto begin = std::chrono::steady_clock::now();
    for (int c = 0; c < concurrency; ++c) {
      threads.emplace_back([&] {
        clientLoop(target, items, repeat, cursor, samples, samples_mutex,
                   verify);
      });
    }
    for (std::thread& t : threads) t.join();
    const double elapsed_s = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - begin)
                                 .count();

    std::size_t failed = 0, mismatches = 0;
    std::vector<double> latencies;
    for (const Sample& s : samples) {
      latencies.push_back(s.latency_ms);
      if (!s.ok) {
        ++failed;
        std::fprintf(stderr, "drdesync-bench: %s failed: %s\n",
                     items[s.item].name.c_str(), s.error.c_str());
        continue;
      }
      if (verify && (s.verilog != ref_verilog[s.item] ||
                     s.sdc != ref_sdc[s.item] ||
                     s.report != ref_report[s.item])) {
        ++mismatches;
        std::string what;
        if (s.verilog != ref_verilog[s.item]) what += " verilog";
        if (s.sdc != ref_sdc[s.item]) what += " sdc";
        if (s.report != ref_report[s.item]) what += " report";
        std::fprintf(stderr,
                     "drdesync-bench: %s differs from the sequential "
                     "reference run in:%s\n",
                     items[s.item].name.c_str(), what.c_str());
        if (s.report != ref_report[s.item]) {
          std::fprintf(stderr, "  reference report: %s\n  server report: %s\n",
                       ref_report[s.item].c_str(), s.report.c_str());
        }
      }
    }
    std::sort(latencies.begin(), latencies.end());
    double latency_sum = 0.0;
    for (double l : latencies) latency_sum += l;

    util::Json out = util::Json::object();
    out.set("tool_version", util::Json::str(std::string(
                                core::kToolVersion)));
    out.set("designs", util::Json::number(
                           static_cast<double>(items.size())));
    out.set("requests",
            util::Json::number(static_cast<double>(samples.size())));
    out.set("failed", util::Json::number(static_cast<double>(failed)));
    out.set("concurrency", util::Json::number(concurrency));
    out.set("workers", util::Json::number(srv_opt.handlers));
    out.set("jobs", util::Json::number(jobs));
    out.set("elapsed_s", util::Json::number(elapsed_s));
    out.set("throughput_designs_per_sec",
            util::Json::number(elapsed_s > 0.0
                                     ? static_cast<double>(samples.size()) /
                                           elapsed_s
                                     : 0.0));
    util::Json lat = util::Json::object();
    lat.set("p50_ms", util::Json::number(percentile(latencies, 0.50)));
    lat.set("p95_ms", util::Json::number(percentile(latencies, 0.95)));
    lat.set("p99_ms", util::Json::number(percentile(latencies, 0.99)));
    lat.set("mean_ms",
            util::Json::number(latencies.empty()
                                     ? 0.0
                                     : latency_sum /
                                           static_cast<double>(
                                               latencies.size())));
    lat.set("max_ms", util::Json::number(
                          latencies.empty() ? 0.0 : latencies.back()));
    out.set("latency", std::move(lat));
    if (verify) {
      util::Json ver = util::Json::object();
      ver.set("checked", util::Json::number(
                             static_cast<double>(samples.size() - failed)));
      ver.set("mismatches",
              util::Json::number(static_cast<double>(mismatches)));
      out.set("verify", std::move(ver));
    }
    std::ofstream(out_path) << out.dump() << "\n";

    std::printf(
        "drdesync-bench: %zu requests in %.2fs (%.1f/s), p50 %.1fms "
        "p95 %.1fms p99 %.1fms, %zu failed%s\n",
        samples.size(), elapsed_s,
        elapsed_s > 0.0 ? static_cast<double>(samples.size()) / elapsed_s
                        : 0.0,
        percentile(latencies, 0.50), percentile(latencies, 0.95),
        percentile(latencies, 0.99), failed,
        verify ? (", " + std::to_string(mismatches) + " mismatches").c_str()
               : "");

    if (local != nullptr) local->stop();
    core::shutdownParallel();
    return (failed == 0 && mismatches == 0) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "drdesync-bench: error: %s\n", e.what());
    core::shutdownParallel();
    return 1;
  }
}
