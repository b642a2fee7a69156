// Loopback socket front-end of the resident simulation service
// (DESIGN.md §16).
//
// One listener on 127.0.0.1 (port 0 = ephemeral; port() reports the bound
// one), a fixed pool of connection slots, and two wire formats sniffed
// from the first bytes of each connection:
//
//   * newline-delimited JSON (the native protocol): one request line in,
//     one response line out, connection stays open for pipelining;
//   * minimal HTTP/1.1 for curl-ability: GET /metrics returns the
//     Prometheus exposition, GET /healthz the liveness document (built
//     from atomics — it answers even with the dispatcher wedged), and
//     POST /simulate wraps one NDJSON request; responses close the
//     connection (Connection: close).
//
// Each connection thread submits to the shared SimService and blocks on
// the response future — optionally bounded by request_timeout_ms, after
// which the client gets a structured "timeout" error (the simulation
// still completes; only the wait is abandoned).
//
// NDJSON requests carrying "stream": true additionally get rate-limited
// {"event":"progress",...} lines (every stream_interval_ms while the
// request is in flight) before the final — unchanged — response line.
//
// Graceful shutdown: stop() closes the listener, asks the service to
// drain (already-queued requests still resolve and their responses are
// written), then unblocks and joins every connection thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "serve/service.h"

namespace paserta {

struct ServerSettings {
  /// 0 = ephemeral: the kernel picks, port() reports.
  std::uint16_t port = 0;
  /// Connection slots; an accept beyond this is closed immediately
  /// (counted as serve.conn_rejected).
  int max_connections = 32;
  /// Per-request response wait bound, ms; 0 = wait forever.
  int request_timeout_ms = 0;
  /// Spacing of streamed {"event":"progress"} lines for NDJSON requests
  /// with "stream": true. Requests without the flag never stream.
  int stream_interval_ms = 250;
};

class SimServer {
 public:
  /// Binds and starts accepting. Throws paserta::Error when the port
  /// cannot be bound. `service` must outlive the server.
  SimServer(SimService& service, const ServerSettings& settings);
  ~SimServer();  // stop()

  SimServer(const SimServer&) = delete;
  SimServer& operator=(const SimServer&) = delete;

  /// The bound port (resolves ephemeral binds).
  std::uint16_t port() const { return port_; }

  /// Graceful shutdown: drains the service, then closes every
  /// connection and joins all threads. Idempotent.
  void stop();

 private:
  struct Slot;

  void accept_main();
  void handle_connection(int fd, Slot& slot);
  void serve_ndjson(int fd, std::string first_chunk);
  void serve_http(int fd, std::string first_chunk);
  /// The response line of `sub`, or the structured timeout error (counted
  /// in serve.timeouts) once request_timeout_ms has passed without it.
  /// With `progress_fd` >= 0 (a streamed NDJSON request) a progress line
  /// goes to that socket every stream_interval_ms while the wait lasts.
  std::string await_response(const SimService::Submission& sub,
                             int progress_fd);

  SimService& service_;
  ServerSettings settings_;
  // The connection layer's serve.* counters, resolved once so a fresh
  // daemon's /metrics lists them at 0.
  Counter& connections_;
  Counter& conn_rejected_;
  Counter& timeouts_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::vector<std::unique_ptr<Slot>> slots_;
  std::thread acceptor_;
};

}  // namespace paserta
