#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <sstream>
#include <string>

#include "common/error.h"
#include "serve/protocol.h"
#include "serve/service.h"

namespace paserta {
namespace {

// Headers of an HTTP request must fit here; bodies are bounded separately
// by the service's request limit.
constexpr std::size_t kMaxHttpHead = 16u * 1024;

void write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return;  // peer went away; nothing sensible to do
    off += static_cast<std::size_t>(n);
  }
}

std::string http_response(int status, const char* reason,
                          const char* content_type, const std::string& body) {
  std::ostringstream os;
  os << "HTTP/1.1 " << status << ' ' << reason << "\r\n"
     << "Content-Type: " << content_type << "\r\n"
     << "Content-Length: " << body.size() << "\r\n"
     << "Connection: close\r\n\r\n"
     << body;
  return os.str();
}

/// Case-insensitive Content-Length extraction; -1 when absent/garbled.
long content_length_of(const std::string& head) {
  std::istringstream is(head);
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string name = line.substr(0, colon);
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    if (name != "content-length") continue;
    try {
      return std::stol(line.substr(colon + 1));
    } catch (...) {
      return -1;
    }
  }
  return -1;
}

}  // namespace

struct SimServer::Slot {
  std::thread thread;
  std::atomic<int> fd{-1};
  std::atomic<bool> done{true};
};

SimServer::SimServer(SimService& service, const ServerSettings& settings)
    : service_(service), settings_(settings) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  PASERTA_REQUIRE(listen_fd_ >= 0,
                  "socket() failed: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, by design
  addr.sin_port = htons(settings_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    PASERTA_REQUIRE(false, "cannot listen on 127.0.0.1:"
                               << settings_.port << ": "
                               << std::strerror(err));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  slots_.reserve(static_cast<std::size_t>(settings_.max_connections));
  for (int i = 0; i < settings_.max_connections; ++i)
    slots_.push_back(std::make_unique<Slot>());
  acceptor_ = std::thread([this] { accept_main(); });
}

SimServer::~SimServer() { stop(); }

void SimServer::stop() {
  if (stopping_.exchange(true)) {
    if (acceptor_.joinable()) acceptor_.join();
    return;
  }
  // Stop accepting, then drain the service: every already-queued request
  // resolves and its connection thread writes the response before the
  // socket teardown below can interrupt anything.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  service_.shutdown();
  for (auto& slot : slots_) {
    const int fd = slot->fd.load();
    if (fd >= 0) ::shutdown(fd, SHUT_RD);  // unblock recv; writes still OK
  }
  for (auto& slot : slots_)
    if (slot->thread.joinable()) slot->thread.join();
}

void SimServer::accept_main() {
  while (!stopping_.load()) {
    pollfd p{listen_fd_, POLLIN, 0};
    const int r = ::poll(&p, 1, 200);
    if (stopping_.load()) return;
    if (r <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;

    Slot* free_slot = nullptr;
    for (auto& slot : slots_) {
      if (!slot->done.load()) continue;
      if (slot->thread.joinable()) slot->thread.join();
      free_slot = slot.get();
      break;
    }
    if (free_slot == nullptr) {
      // All slots busy: shed the connection rather than queue unbounded
      // socket state (the request queue has its own backpressure).
      service_.registry().counter("serve.conn_rejected").add();
      write_all(fd, render_error("", "overloaded",
                                 "too many connections; retry later") + "\n");
      ::close(fd);
      continue;
    }
    service_.registry().counter("serve.connections").add();
    free_slot->done.store(false);
    free_slot->fd.store(fd);
    free_slot->thread = std::thread(
        [this, fd, free_slot] { handle_connection(fd, *free_slot); });
  }
}

void SimServer::handle_connection(int fd, Slot& slot) {
  // Sniff the protocol from the first chunk: HTTP verbs vs. raw NDJSON.
  char buf[4096];
  const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
  if (n > 0) {
    std::string first(buf, static_cast<std::size_t>(n));
    if (first.rfind("GET ", 0) == 0 || first.rfind("POST ", 0) == 0) {
      serve_http(fd, std::move(first));
    } else {
      serve_ndjson(fd, std::move(first));
    }
  }
  ::close(fd);
  slot.fd.store(-1);
  slot.done.store(true);
}

std::string SimServer::response_for(const std::string& line) {
  std::shared_future<std::string> f = service_.submit(line);
  if (settings_.request_timeout_ms > 0) {
    const auto status =
        f.wait_for(std::chrono::milliseconds(settings_.request_timeout_ms));
    if (status != std::future_status::ready) {
      // The service still finishes the job; only this wait gives up.
      service_.registry().counter("serve.timeouts").add();
      return render_error("", "timeout",
                          "no response within " +
                              std::to_string(settings_.request_timeout_ms) +
                              " ms");
    }
  }
  return f.get();
}

void SimServer::respond_ndjson(int fd, const std::string& line) {
  SimService::Submission sub = service_.submit_line(line);
  const auto t0 = std::chrono::steady_clock::now();
  const long timeout_ms = settings_.request_timeout_ms;
  if (!sub.stream) {
    // The pre-streaming exchange, byte for byte: one response line.
    if (timeout_ms > 0 &&
        sub.response.wait_for(std::chrono::milliseconds(timeout_ms)) !=
            std::future_status::ready) {
      service_.registry().counter("serve.timeouts").add();
      write_all(fd, render_error("", "timeout",
                                 "no response within " +
                                     std::to_string(timeout_ms) + " ms") +
                        "\n");
      return;
    }
    write_all(fd, sub.response.get() + "\n");
    return;
  }

  // Streamed request: a progress line at most every stream_interval_ms
  // while the response is pending, then the unchanged final response —
  // the overall request_timeout_ms bound still applies.
  const long interval_ms =
      std::max(1, settings_.stream_interval_ms);
  for (;;) {
    long wait_ms = interval_ms;
    if (timeout_ms > 0) {
      const long elapsed_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - t0)
              .count();
      const long remaining_ms = timeout_ms - elapsed_ms;
      if (remaining_ms <= 0) {
        service_.registry().counter("serve.timeouts").add();
        write_all(fd, render_error("", "timeout",
                                   "no response within " +
                                       std::to_string(timeout_ms) + " ms") +
                          "\n");
        return;
      }
      wait_ms = std::min(wait_ms, remaining_ms);
    }
    if (sub.response.wait_for(std::chrono::milliseconds(wait_ms)) ==
        std::future_status::ready) {
      break;
    }
    const SimService::LiveProgress lp = service_.live_progress(sub);
    const double elapsed =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    write_all(fd, render_progress(sub.id_json, lp.done, lp.total, lp.phase,
                                  elapsed, lp.cycles, lp.instructions) +
                      "\n");
  }
  write_all(fd, sub.response.get() + "\n");
}

void SimServer::serve_ndjson(int fd, std::string pending) {
  const std::size_t line_cap = service_.limits().max_request_bytes + 1;
  std::string carry;
  for (;;) {
    // Process every complete line already buffered.
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = pending.find('\n', start);
      if (nl == std::string::npos) break;
      std::string line = carry + pending.substr(start, nl - start);
      carry.clear();
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      respond_ndjson(fd, line);
    }
    carry += pending.substr(start);
    pending.clear();
    if (carry.size() > line_cap) {
      // Oversized line: reject without buffering the rest of it.
      write_all(fd, render_error("", "bad_request",
                                 "request line exceeds " +
                                     std::to_string(line_cap - 1) +
                                     " bytes") + "\n");
      return;
    }
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return;  // EOF or shutdown(SHUT_RD) from stop()
    pending.assign(buf, static_cast<std::size_t>(n));
  }
}

void SimServer::serve_http(int fd, std::string head) {
  // Read to the end of the headers.
  std::size_t hdr_end;
  while ((hdr_end = head.find("\r\n\r\n")) == std::string::npos) {
    if (head.size() > kMaxHttpHead) {
      write_all(fd, http_response(431, "Request Header Fields Too Large",
                                  "text/plain", "headers too large\n"));
      return;
    }
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return;
    head.append(buf, static_cast<std::size_t>(n));
  }
  std::string body = head.substr(hdr_end + 4);
  head.resize(hdr_end);

  const std::size_t sp1 = head.find(' ');
  const std::size_t sp2 = head.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    write_all(fd, http_response(400, "Bad Request", "text/plain",
                                "malformed request line\n"));
    return;
  }
  const std::string method = head.substr(0, sp1);
  const std::string path = head.substr(sp1 + 1, sp2 - sp1 - 1);

  if (method == "GET" && (path == "/metrics" || path == "/metrics/")) {
    write_all(fd, http_response(200, "OK", "text/plain; version=0.0.4",
                                service_.metrics_text()));
    return;
  }
  if (method == "GET" && (path == "/healthz" || path == "/healthz/")) {
    write_all(fd, http_response(200, "OK", "application/json",
                                service_.healthz_json() + "\n"));
    return;
  }
  if (method == "POST" && path == "/simulate") {
    const long want = content_length_of(head);
    if (want < 0 ||
        static_cast<std::size_t>(want) >
            service_.limits().max_request_bytes) {
      write_all(fd, http_response(413, "Payload Too Large", "text/plain",
                                  "missing or oversized Content-Length\n"));
      return;
    }
    while (body.size() < static_cast<std::size_t>(want)) {
      char buf[4096];
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) return;
      body.append(buf, static_cast<std::size_t>(n));
    }
    // Strip a trailing newline so curl -d @file and NDJSON agree.
    while (!body.empty() && (body.back() == '\n' || body.back() == '\r'))
      body.pop_back();
    write_all(fd, http_response(200, "OK", "application/json",
                                response_for(body) + "\n"));
    return;
  }
  write_all(fd, http_response(404, "Not Found", "text/plain",
                              "try GET /metrics, GET /healthz or "
                              "POST /simulate\n"));
}

}  // namespace paserta
