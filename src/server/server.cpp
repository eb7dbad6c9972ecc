#include "server/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "core/parallel.h"

namespace desync::server {

using util::Json;

namespace {

/// One accepted connection.  Jobs hold a shared_ptr, so the fd stays open
/// until the last queued reply for it has been written.
struct SocketWriter {
  explicit SocketWriter(int fd) : fd(fd) {}
  ~SocketWriter() { ::close(fd); }
  /// Errors (peer gone) are swallowed: the request was already served,
  /// there is no one to tell.
  void write(const std::string& line) {
    std::lock_guard<std::mutex> lock(mutex);
    writeLine(fd, line);
  }
  int fd;
  std::mutex mutex;
};

}  // namespace

struct Server::Job {
  Request request;
  std::function<void(const std::string&)> write;
  std::chrono::steady_clock::time_point arrival;
};

Server::Server(const ServerOptions& options)
    : options_(options),
      service_(std::make_unique<FlowService>(options.service)) {
  if (options_.handlers < 1) options_.handlers = 1;
}

Server::~Server() { stop(); }

void Server::start() {
  if (!options_.socket_path.empty()) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      throw std::runtime_error(std::string("socket: ") +
                               std::strerror(errno));
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw std::runtime_error("socket path too long: " +
                               options_.socket_path);
    }
    std::strncpy(addr.sun_path, options_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(options_.socket_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
      const std::string detail = std::strerror(errno);
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw std::runtime_error("bind/listen " + options_.socket_path + ": " +
                               detail);
    }
    acceptor_ = std::thread([this] { acceptLoop(); });
  }
  for (int i = 0; i < options_.handlers; ++i) {
    handlers_.emplace_back([this] { handlerLoop(); });
  }
}

void Server::requestShutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void Server::waitForShutdownRequest() {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
}

bool Server::waitForShutdownRequestFor(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  return shutdown_cv_.wait_for(lock, timeout,
                               [this] { return shutdown_requested_; });
}

void Server::stop() {
  requestShutdown();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_) return;  // second caller: destructor after explicit stop
    stopping_ = true;
  }
  queue_cv_.notify_all();

  // Wake the acceptor (shutdown() on a listening socket fails accept()
  // with EINVAL on Linux) and every blocked connection reader.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(readers_mutex_);
    for (int fd : reader_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (acceptor_.joinable()) acceptor_.join();
  {
    std::lock_guard<std::mutex> lock(readers_mutex_);
    for (std::thread& t : readers_) {
      if (t.joinable()) t.join();
    }
    readers_.clear();
    reader_fds_.clear();
  }
  // Handlers drain whatever was accepted before intake stopped, then exit.
  for (std::thread& t : handlers_) {
    if (t.joinable()) t.join();
  }
  handlers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
}

std::string Server::statsReplyLine(std::uint64_t id) const {
  const ServerStats s = stats();
  const core::PoolStats pool = core::poolStats();
  Json reply = Json::object();
  reply.set("id", Json::number(static_cast<double>(id)));
  reply.set("ok", Json::boolean(true));
  reply.set("received", Json::number(static_cast<double>(s.received)));
  reply.set("completed", Json::number(static_cast<double>(s.completed)));
  reply.set("failed", Json::number(static_cast<double>(s.failed)));
  reply.set("rejected", Json::number(static_cast<double>(s.rejected)));
  Json pool_obj = Json::object();
  pool_obj.set("sections", Json::number(static_cast<double>(pool.sections)));
  pool_obj.set("contended_sections",
               Json::number(static_cast<double>(pool.contended)));
  pool_obj.set("wait_ms", Json::number(pool.wait_us / 1000.0));
  reply.set("pool", std::move(pool_obj));
  return reply.dump();
}

void Server::submitLine(
    const std::string& line,
    const std::function<void(const std::string&)>& write) {
  Message msg;
  try {
    msg = parseMessage(line);
  } catch (const std::exception& e) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    Json reply = Json::object();
    reply.set("ok", Json::boolean(false));
    reply.set("error", Json::str(e.what()));
    write(reply.dump());
    return;
  }

  // Control commands answer inline: they must not queue behind flow work.
  if (msg.cmd == "ping") {
    Json reply = Json::object();
    reply.set("id", Json::number(static_cast<double>(msg.request.id)));
    reply.set("ok", Json::boolean(true));
    reply.set("pong", Json::boolean(true));
    write(reply.dump());
    return;
  }
  if (msg.cmd == "stats") {
    write(statsReplyLine(msg.request.id));
    return;
  }
  if (msg.cmd == "shutdown") {
    Json reply = Json::object();
    reply.set("id", Json::number(static_cast<double>(msg.request.id)));
    reply.set("ok", Json::boolean(true));
    reply.set("shutting_down", Json::boolean(true));
    write(reply.dump());
    requestShutdown();
    return;
  }

  received_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_) {
      // Intake has closed; tell the client instead of dropping the line.
      Json reply = Json::object();
      reply.set("id", Json::number(static_cast<double>(msg.request.id)));
      reply.set("ok", Json::boolean(false));
      reply.set("error", Json::str("server is shutting down"));
      failed_.fetch_add(1, std::memory_order_relaxed);
      write(reply.dump());
      return;
    }
    queue_.push_back(Job{std::move(msg.request), write,
                         std::chrono::steady_clock::now()});
  }
  queue_cv_.notify_one();
}

void Server::handlerLoop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    const double queue_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() -
                                job.arrival)
                                .count();
    Json reply = service_->handle(job.request);
    reply.set("queue_ms", Json::number(queue_ms));
    if (reply.getBool("ok", false)) {
      completed_.fetch_add(1, std::memory_order_relaxed);
    } else {
      failed_.fetch_add(1, std::memory_order_relaxed);
    }
    job.write(reply.dump());
  }
}

void Server::acceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket shut down (stop()) or fatal
    }
    std::lock_guard<std::mutex> lock(readers_mutex_);
    reader_fds_.push_back(fd);
    readers_.emplace_back([this, fd] { connectionLoop(fd); });
  }
}

void Server::connectionLoop(int fd) {
  auto writer = std::make_shared<SocketWriter>(fd);
  const auto write = [writer](const std::string& line) {
    writer->write(line);
  };
  std::string buf;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;  // EOF, error, or stop()'s shutdown()
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buf.find('\n', start);
      if (nl == std::string::npos) break;
      const std::string line = buf.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty()) submitLine(line, write);
    }
    buf.erase(0, start);
  }
}

void Server::serveStream(std::istream& in, std::ostream& out) {
  // Replies outlive the read loop (handlers finish after EOF), so the
  // writer state is shared and the loop waits for the last reply.
  struct StreamWriter {
    explicit StreamWriter(std::ostream& out) : out(out) {}
    std::ostream& out;
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t outstanding = 0;
  };
  auto writer = std::make_shared<StreamWriter>(out);
  const auto write = [writer](const std::string& line) {
    std::lock_guard<std::mutex> lock(writer->mutex);
    writer->out << line << '\n';
    writer->out.flush();
    if (writer->outstanding > 0) --writer->outstanding;
    writer->cv.notify_all();
  };

  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    {
      std::lock_guard<std::mutex> lock(writer->mutex);
      ++writer->outstanding;
    }
    submitLine(line, write);
    {
      // A "shutdown" line stops the stream too.
      std::lock_guard<std::mutex> lock(shutdown_mutex_);
      if (shutdown_requested_) break;
    }
  }
  std::unique_lock<std::mutex> lock(writer->mutex);
  writer->cv.wait(lock, [&writer] { return writer->outstanding == 0; });
}

ServerStats Server::stats() const {
  ServerStats s;
  s.received = received_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace desync::server
