// drdesyncd — the desynchronization flow as a long-running service.
//
// Loads the Liberty library once, then serves desynchronization requests
// over a JSON-lines protocol (docs/server.md): one request object per
// line, one reply per line.  Requests from every connection share the hot
// library, one FlowDB cache directory and the deterministic parallel layer;
// each request runs under its own jobs budget and trace track.
//
//   drdesyncd --lib builtin:hs --socket /tmp/drdesync.sock --workers 4
//   drdesyncd --lib builtin:hs --stdio < requests.jsonl > replies.jsonl
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "core/parallel.h"
#include "core/version.h"
#include "flowdb/cache.h"
#include "server/server.h"
#include "trace/trace.h"

using namespace desync;

namespace {

void usage() {
  // One flag per line; tools/check_docs.sh cross-checks this text and
  // docs/cli.md against the parser, so a new flag cannot ship undocumented.
  std::fputs(
      "usage: drdesyncd --lib <lib> (--socket PATH | --stdio) [options...]\n"
      "                                            (full docs: docs/server.md)\n"
      "\n"
      "service:\n"
      "  --lib <file.lib|builtin:hs|builtin:ll>  Liberty library (required)\n"
      "  --socket PATH      listen on a Unix-domain socket\n"
      "  --stdio            serve one JSON-lines session on stdin/stdout\n"
      "  --workers N        handler threads serving requests (default 2)\n"
      "  --jobs N           default per-request worker budget, 0 = auto\n"
      "  --cache-dir DIR    shared proof cache: a prover request reuses the\n"
      "                     proofs its design's table holds (docs/eco.md)\n"
      "\n"
      "diagnostics:\n"
      "  --trace FILE       write a Chrome trace_event JSON on exit; each\n"
      "                     request gets its own named track\n"
      "  --version          print tool and cache-format versions\n"
      "  --help, -h         this message\n",
      stderr);
}

volatile std::sig_atomic_t g_signal = 0;
void onSignal(int) { g_signal = 1; }

}  // namespace

int main(int argc, char** argv) {
  server::ServerOptions opt;
  bool stdio = false;
  std::string trace_path;

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
      opt.service.lib = next();
    } else if (arg == "--socket") {
      opt.socket_path = next();
    } else if (arg == "--stdio") {
      stdio = true;
    } else if (arg == "--workers") {
      opt.handlers = std::atoi(next().c_str());
      if (opt.handlers < 1 || opt.handlers > 256) {
        std::fputs("--workers must be in 1..256\n", stderr);
        return 2;
      }
    } else if (arg == "--jobs") {
      opt.service.default_jobs = std::atoi(next().c_str());
      if (opt.service.default_jobs < 0 || opt.service.default_jobs > 1024) {
        std::fputs("--jobs must be in 0..1024\n", stderr);
        return 2;
      }
    } else if (arg == "--cache-dir") {
      opt.service.cache_dir = next();
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--version") {
      std::printf("drdesyncd %s (cache format %u)\n",
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
  if (opt.socket_path.empty() && !stdio) {
    usage();
    return 2;
  }

  if (!trace_path.empty()) {
    trace::start(trace_path);
  } else {
    trace::startFromEnv();
  }

  int exit_code = 0;
  try {
    server::Server srv(opt);
    srv.start();
    if (!opt.socket_path.empty()) {
      std::fprintf(stderr, "drdesyncd: listening on %s (%d workers)\n",
                   opt.socket_path.c_str(), opt.handlers);
    }
    if (stdio) {
      srv.serveStream(std::cin, std::cout);
    } else {
      std::signal(SIGINT, onSignal);
      std::signal(SIGTERM, onSignal);
      while (g_signal == 0 &&
             !srv.waitForShutdownRequestFor(std::chrono::milliseconds(200))) {
      }
    }
    srv.stop();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "drdesyncd: error: %s\n", e.what());
    exit_code = 1;
  }
  trace::finish();
  core::shutdownParallel();  // join pool workers before static destructors
  return exit_code;
}
