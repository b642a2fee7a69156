// Loopback clients for the serve daemon: the blocking NDJSON client
// test_serve drives it with, and a one-shot HTTP request (test_serve and
// perfbench's serve_mix read /metrics through it).
#pragma once

#include <cstdint>
#include <string>

namespace paserta {

/// Minimal blocking NDJSON client for 127.0.0.1:<port>. One request line
/// out, one response line back; the connection stays open across
/// request() calls (the daemon's pipelining path). Not thread-safe; give
/// each client thread its own instance.
class ServeClient {
 public:
  explicit ServeClient(std::uint16_t port);
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  bool connected() const { return fd_ >= 0; }
  /// Sends `line` (newline appended) and returns the response line
  /// (newline stripped); empty on a dead connection.
  std::string request(const std::string& line);
  /// Blocks for the next response line without sending anything — how a
  /// streaming client (`"stream":true`) drains progress lines until the
  /// final result. Empty on a dead connection.
  std::string read_line();

 private:
  int fd_ = -1;
  std::string carry_;  // bytes past the last newline already received
};

/// One-shot HTTP/1.1 request against 127.0.0.1:<port>; returns the
/// response body (headers stripped), empty on connection failure.
/// `body` non-empty turns it into a POST.
std::string http_request(std::uint16_t port, const std::string& path,
                         const std::string& body = "");

}  // namespace paserta
