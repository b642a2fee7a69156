// The resident simulation service (DESIGN.md §16): protocol-independent
// core behind the socket server.
//
// Connection handlers (or tests, directly) submit() request lines and get
// a future for the full response line. A single dispatcher thread drains
// the bounded queue in batches, groups jobs whose semantic key is
// identical — same interned graph, platform, heuristic, schemes, runs,
// seed and deadline — runs each distinct group once through the existing
// harness (run_point on the WorkerPool / batched engine), and fulfills
// every job of a group from the one shared result. Grouping is pure
// coalescing: results are bit-identical whether a request ran alone or
// shared a simulation, because the key pins every output-relevant input.
//
// Cross-request caching happens at two levels, both confined to the
// dispatcher thread (OfflineCache and GraphStore are single-threaded by
// contract): the GraphStore interns Applications by content so repeated
// workloads resolve to one object, and the OfflineCache then memoizes
// the canonical offline analysis across requests keyed by that object's
// address. serve.* and offline.cache.* registry counters make both
// observable.
//
// Threading / metrics discipline: submit-side counters (serve.requests,
// serve.rejected, ...) are only written under the queue mutex; dispatch-
// side counters and the latency histogram are only written by the
// dispatcher thread. Either way each (metric, shard-0) cell has
// serialized writers, keeping the registry's single-writer-per-shard
// contract TSan-clean.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/offline.h"
#include "harness/experiment.h"
#include "obs/prof.h"
#include "obs/progress.h"
#include "serve/graph_store.h"
#include "serve/protocol.h"

namespace paserta {

class Tracer;

struct ServeSettings {
  /// Worker threads per dispatched simulation (ExperimentConfig::threads).
  int threads = 1;
  DedupMode dedup = DedupMode::kAuto;
  /// Pending requests beyond which submit() rejects with "overloaded"
  /// (the 429-style backpressure bound).
  int queue_limit = 256;
  ServeLimits limits;
  /// Metrics sink; null = a service-owned scoped registry.
  MetricsRegistry* registry = nullptr;
  /// Optional span tracer: per-request "serve.request" spans (span id =
  /// the request sequence number, in the run arg) plus batch/group spans,
  /// all on slot 0 (the dispatcher's track).
  Tracer* tracer = nullptr;
};

class SimService {
 public:
  explicit SimService(ServeSettings settings);
  ~SimService();  // shutdown()

  SimService(const SimService&) = delete;
  SimService& operator=(const SimService&) = delete;

  /// Thread-safe. Parses one request line and returns a future yielding
  /// the full response line. Parse errors, hello, overload and
  /// shutting-down responses resolve immediately; simulate requests
  /// resolve when the dispatcher has run them. Inline graph-text errors
  /// surface asynchronously (the graph is built on the dispatcher).
  std::shared_future<std::string> submit(const std::string& line);

  /// submit() plus the transport hints a streaming front-end needs: the
  /// request's parsed "stream" flag and its echoed id (for the
  /// {"event":"progress"} lines the server interleaves while waiting).
  struct Submission {
    std::shared_future<std::string> response;
    bool stream = false;
    std::string id_json;
  };
  Submission submit_line(const std::string& line);

  /// Live dispatcher state for streamed progress lines: cumulative pool
  /// chunks done/total over the service lifetime, the phase the
  /// dispatcher is in, and the profiler's cycle/instruction totals (0 on
  /// the fallback clock). Lock-free w.r.t. the dispatcher (atomics plus a
  /// profiler snapshot); callable from any thread.
  struct LiveProgress {
    std::uint64_t done = 0;
    std::uint64_t total = 0;
    const char* phase = "idle";
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
  };
  LiveProgress live_progress();

  /// The GET /healthz body: {"status":"ok","queue_depth":N,
  /// "uptime_s":...} built from atomics only — never touches the
  /// dispatcher lock, so a wedged dispatcher still answers liveness.
  std::string healthz_json();

  /// Drains every pending request (even while paused), stops the
  /// dispatcher and rejects later submits with "shutting_down".
  /// Idempotent; called by the destructor.
  void shutdown();

  /// Test hooks: while paused the dispatcher leaves the queue alone, so
  /// tests can pile up concurrent requests and observe deterministic
  /// coalescing/backpressure; resume (or shutdown) releases the backlog.
  void pause_dispatch();
  void resume_dispatch();

  MetricsRegistry& registry();
  /// Prometheus exposition of the registry, preceded by a
  /// "# paserta <rev> (<build>)" provenance comment — the /metrics body.
  std::string metrics_text();

  /// Pending (not yet dispatched) requests; test/observability hook.
  std::size_t queue_depth();

  const ServeLimits& limits() const { return settings_.limits; }

  /// The service's phase profiler — counter tracks for the daemon's
  /// --trace-out flush. Snapshot/samples are safe from any thread.
  const Profiler& profiler() const { return prof_; }

 private:
  struct Job {
    SimRequest req;
    std::promise<std::string> promise;
    std::uint64_t seq = 0;                          // request span id
    std::chrono::steady_clock::time_point t0{};     // latency epoch
    std::int64_t ts_ns = 0;                         // tracer epoch
  };

  void dispatcher_main();
  void process_batch(std::vector<std::unique_ptr<Job>>& batch);
  void finish_job(Job& job, const std::string& response);

  ServeSettings settings_;
  std::unique_ptr<MetricsRegistry> owned_registry_;
  MetricsRegistry* registry_ = nullptr;
  Histogram* latency_ = nullptr;

  std::mutex m_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Job>> queue_;
  bool paused_ = false;
  bool stopping_ = false;
  std::uint64_t next_seq_ = 0;

  // Lock-free observability mirrors (healthz / live progress): depth_
  // shadows queue_.size() (stored under m_, read without it), phase_ is
  // the dispatcher's current stage, progress_ counts pool chunks (its
  // callback is a no-op; the atomic done/total accessors are the point).
  const std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  std::atomic<std::size_t> depth_{0};
  std::atomic<const char*> phase_{"idle"};
  ProgressReporter progress_{[](const ProgressSnapshot&) {}};

  // Phase profiler (DESIGN.md §17). serve.parse is charged by connection
  // threads but only inside submit_line's m_-held section (serialized
  // writers, wall-clock only); the other serve.* phases and everything
  // the harness charges run on the dispatcher / pool slots.
  Profiler prof_;
  int ph_parse_ = -1;
  int ph_intern_ = -1;
  int ph_group_ = -1;
  int ph_simulate_ = -1;
  int ph_respond_ = -1;

  // Dispatcher-confined state (no locking: single thread).
  GraphStore store_;
  OfflineCache cache_;
  std::uint64_t last_interned_ = 0;  // store_.misses() already exported

  std::thread dispatcher_;
};

}  // namespace paserta
