// Wire protocol of the resident simulation service (DESIGN.md §16).
//
// Requests are newline-delimited JSON objects parsed by harness/json —
// the same parser the tools already round-trip against — under explicit
// untrusted-input limits (request size, graph text size, run/cpu caps; the
// parser itself enforces the nesting-depth limit). Responses are rendered
// through the shared JsonWriter, one line per response:
//
//   {"cmd": "hello"}                          -> {"type":"hello",...}
//   {"graph": "@atr", "load": 0.5, ...}       -> {"type":"result",...}
//   anything invalid                          -> {"type":"error",...}
//
// A result response splices the *exact* sweep-export document the offline
// CLI prints for the same point under "experiment" — bit-identity with
// `paserta_cli sweep --json` is part of the contract and pinned by
// test_serve.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/list_sched.h"
#include "core/policy.h"

namespace paserta {

/// Untrusted-input caps enforced on every request before any work runs.
/// Violations produce structured error responses, never crashes — the
/// adversarial inputs in test_json/test_serve pin that.
struct ServeLimits {
  /// Longest accepted request line, bytes (newline excluded).
  std::size_t max_request_bytes = 1u << 20;
  /// Longest accepted inline graph text, bytes.
  std::size_t max_graph_text_bytes = 256u * 1024;
  int max_cpus = 64;
  int max_runs = 1'000'000;
};

/// One parsed simulation request. Field defaults mirror the offline CLI
/// so a minimal request ({"graph": "@atr"}) means exactly what
/// `paserta_cli sweep @atr` means at one point.
struct SimRequest {
  /// The request's "id" member re-rendered as JSON, echoed verbatim in
  /// the response; empty = absent.
  std::string id_json;
  std::string command = "simulate";  // "simulate" | "hello"

  /// "@atr" / "@synthetic" / "@mpeg", or inline workload text
  /// (graph_is_text). Builtin names are resolved by the service.
  std::string graph;
  bool graph_is_text = false;

  std::string table = "transmeta";  // "transmeta" | "xscale"
  int cpus = 2;
  ListHeuristic heuristic = ListHeuristic::LongestTaskFirst;
  std::vector<Scheme> schemes;  // empty = the CLI's default five
  int runs = 200;
  /// On the wire a plain integer in [0, 2^53] (no fraction or exponent):
  /// a JSON number is a double, exact only up to 2^53.
  std::uint64_t seed = 1;
  /// Deadline: exactly one of load (D = ceil(W / load), the sweep rule)
  /// or deadline_ms. Neither given = load 0.5, the CLI default.
  double load = 0.5;
  std::optional<double> deadline_ms;
  /// Opt-in progress streaming ("stream": true): on the NDJSON transport
  /// the server interleaves rate-limited {"event":"progress",...} lines
  /// while this request is in flight, then writes the unchanged final
  /// response. Off by default so one-line clients are untouched.
  bool stream = false;
};

/// Parses and validates one request line under `limits`. Throws
/// paserta::Error (with the parser's byte offsets for malformed JSON) on
/// any violation; the caller turns that into a render_error response.
SimRequest parse_request(const std::string& line, const ServeLimits& limits);

/// {"id":...,"type":"error","code":code,"message":message}
/// Codes: bad_request, overloaded, timeout, shutting_down, internal.
std::string render_error(const std::string& id_json, const std::string& code,
                         const std::string& message);

/// {"id":...,"type":"hello","server":...,"git_rev":...,"build":...,"proto":1}
std::string render_hello(const std::string& id_json);

/// {"id":...,"type":"result","graph_hash":"<hex>","coalesced":N,
///  "elapsed_ms":...,"experiment":<experiment_json spliced verbatim>}
std::string render_result(const std::string& id_json,
                          std::uint64_t graph_hash, std::uint64_t coalesced,
                          double elapsed_ms,
                          const std::string& experiment_json);

/// One streamed progress line ("stream": true requests only):
/// {"id":...,"event":"progress","done":N,"total":M,"phase":"...",
///  "elapsed_ms":...,"cycles":C,"instructions":I}
/// done/total count pool chunks of the in-flight batch; cycles and
/// instructions are the live profiler snapshot (0 on the fallback clock).
std::string render_progress(const std::string& id_json, std::uint64_t done,
                            std::uint64_t total, const std::string& phase,
                            double elapsed_ms, std::uint64_t cycles,
                            std::uint64_t instructions);

/// Fixed-width lowercase hex of a 64-bit hash ("%016x"), the rendering
/// graph_hash uses everywhere (responses, logs, tests).
std::string hash_hex(std::uint64_t h);

}  // namespace paserta
