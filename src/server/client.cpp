#include "server/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "server/protocol.h"

namespace desync::server {

Client::Client(const std::string& socket_path) {
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    ::close(fd_);
    throw std::runtime_error("socket path too long: " + socket_path);
  }
  std::strncpy(addr.sun_path, socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string detail = std::strerror(errno);
    ::close(fd_);
    throw std::runtime_error("connect " + socket_path + ": " + detail);
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept
    : fd_(other.fd_), buf_(std::move(other.buf_)) {
  other.fd_ = -1;
}

void Client::sendLine(const std::string& line) {
  if (!writeLine(fd_, line)) {
    throw std::runtime_error(std::string("send: ") + std::strerror(errno));
  }
}

std::string Client::recvLine() {
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      throw std::runtime_error("recv: connection closed by the server");
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace desync::server
