#include "serve/loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <sstream>

namespace paserta {
namespace {

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

ServeClient::ServeClient(std::uint16_t port)
    : fd_(connect_loopback(port)) {}

ServeClient::~ServeClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::string ServeClient::request(const std::string& line) {
  if (fd_ < 0) return {};
  if (!send_all(fd_, line + "\n")) return {};
  return read_line();
}

std::string ServeClient::read_line() {
  if (fd_ < 0) return {};
  for (;;) {
    const std::size_t nl = carry_.find('\n');
    if (nl != std::string::npos) {
      std::string out = carry_.substr(0, nl);
      carry_.erase(0, nl + 1);
      return out;
    }
    char buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) {
      ::close(fd_);
      fd_ = -1;
      return {};
    }
    carry_.append(buf, static_cast<std::size_t>(n));
  }
}

std::string http_request(std::uint16_t port, const std::string& path,
                         const std::string& body) {
  const int fd = connect_loopback(port);
  if (fd < 0) return {};
  std::ostringstream req;
  if (body.empty()) {
    req << "GET " << path << " HTTP/1.1\r\n";
  } else {
    req << "POST " << path << " HTTP/1.1\r\n"
        << "Content-Length: " << body.size() << "\r\n";
  }
  req << "Host: 127.0.0.1\r\nConnection: close\r\n\r\n" << body;
  if (!send_all(fd, req.str())) {
    ::close(fd);
    return {};
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
    response.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string{}
                                    : response.substr(split + 4);
}

}  // namespace paserta
