// drdesyncd server core: fair scheduling of concurrent flow requests.
//
// One Server owns one FlowService (one hot library) and a pool of handler
// threads draining a single FIFO queue.  Every transport feeds the same
// queue, so requests are served strictly in arrival order regardless of
// which connection they came in on — a client opening ten connections gets
// no more than its share of the handlers.
//
// Transports:
//   - Unix-domain socket (options.socket_path): an accept loop spawns one
//     reader thread per connection; replies go back on the connection the
//     request arrived on, serialized by a per-connection write mutex, and
//     may be out of order (match them by `id`).
//   - stdio (serveStream): the calling thread reads the stream and replies
//     go to the paired output stream.  Used by `drdesyncd --stdio` and the
//     in-process tests.
//
// Control commands ("ping", "stats", "shutdown") are answered directly on
// the reader thread — they never queue behind flow work.  A "shutdown"
// request (or requestShutdown()) stops intake; stop() then drains the
// queue and joins every thread, so accepted work is always answered.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/service.h"

namespace desync::server {

struct ServerOptions {
  ServiceOptions service;
  /// Handler threads draining the request queue (>= 1).  Each runs one
  /// request at a time; the per-request `jobs` budget governs the
  /// parallelism *inside* a request.
  int handlers = 2;
  /// Unix-domain socket path to listen on; empty = stdio/in-process only.
  std::string socket_path;
};

/// Intake/completion counters (the "stats" command's payload).
struct ServerStats {
  std::uint64_t received = 0;   ///< well-formed desync requests accepted
  std::uint64_t completed = 0;  ///< replies with ok=true
  std::uint64_t failed = 0;     ///< replies with ok=false
  std::uint64_t rejected = 0;   ///< lines that failed to parse
};

class Server {
 public:
  /// Resolves the library (throws on a bad spec); does not start threads.
  explicit Server(const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Starts the handler threads and, when a socket path is configured,
  /// binds the socket and starts accepting.  Throws on bind failure.
  void start();

  /// Stops intake, drains the queue, joins every thread and unlinks the
  /// socket.  Idempotent; also run by the destructor.
  void stop();

  /// Asks the server to shut down without blocking (reader threads and
  /// signal handlers use this); wake waitForShutdownRequest() callers.
  void requestShutdown();

  /// Blocks until requestShutdown() is called (daemon main loop).
  void waitForShutdownRequest();

  /// Bounded wait; returns true once shutdown has been requested.  The
  /// daemon polls with this so a signal flag set by SIGINT/SIGTERM (whose
  /// handler cannot safely touch condition variables) is noticed.
  bool waitForShutdownRequestFor(std::chrono::milliseconds timeout);

  /// Serves one JSON-lines stream on the calling thread: reads requests
  /// from `in`, writes replies to `out` (out-of-order, matched by id).
  /// Returns once `in` hits EOF or a "shutdown" command arrives, after
  /// every request read from this stream has been answered.
  void serveStream(std::istream& in, std::ostream& out);

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] const FlowService& service() const { return *service_; }

 private:
  struct Job;

  /// Parses `line` and either answers it inline (control commands, parse
  /// errors) or enqueues it; `write` must be thread-safe.
  void submitLine(const std::string& line,
                  const std::function<void(const std::string&)>& write);
  void handlerLoop();
  void acceptLoop();
  void connectionLoop(int fd);
  [[nodiscard]] std::string statsReplyLine(std::uint64_t id) const;

  ServerOptions options_;
  std::unique_ptr<FlowService> service_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  bool stopping_ = false;  ///< guarded by queue_mutex_

  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;

  std::vector<std::thread> handlers_;
  std::thread acceptor_;
  int listen_fd_ = -1;

  std::mutex readers_mutex_;
  std::vector<std::thread> readers_;
  std::vector<int> reader_fds_;  ///< open connection fds, for stop()

  std::atomic<std::uint64_t> received_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> rejected_{0};
};

}  // namespace desync::server
