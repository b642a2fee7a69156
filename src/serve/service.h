// The resident simulation service (DESIGN.md §16): protocol-independent
// core behind the socket server.
//
// Connection handlers (or tests, directly) submit() request lines and get
// a future for the full response line. A dispatcher thread drains the
// bounded queue in batches and does the serial work: it builds and
// interns each job's graph, groups jobs whose semantic key is identical —
// same interned graph, platform, heuristic, schemes, runs, seed and
// deadline — and resolves each group's canonical analysis and deadline.
// It then hands every group to the process WorkerPool as one task, up to
// ServeSettings::threads groups at a time: the worker runs the group's
// point serially through the existing harness (run_point on the batched
// engine), renders it once and fulfills every job of the group from that
// one result. Grouping is pure coalescing and concurrency is invisible in
// the output: results are bit-identical whether a request ran alone,
// shared a simulation or ran beside others, because the key pins every
// output-relevant input and each point is computed serially.
//
// Cross-request caching is confined to the dispatcher: the GraphStore
// interns Applications by content, each entry keeps its canonical
// analyses, and least recently used entries are evicted past a byte
// budget (a group in flight keeps its entry alive). serve.*,
// offline.cache.* and serve.graph_store.* metrics make both observable.
//
// Threading / metrics discipline: registry metrics are atomics that any
// thread writes (connection threads, the dispatcher and the workers
// alike). Profiler cells and trace tracks have one writer per slot: the
// dispatcher charges slot 0, connection threads charge serve.parse on
// slot 0 under the queue mutex, and a worker charges its phases and its
// serve.request spans on its participant slot
// (WorkerPool::participant_slot), where the harness also charges the
// group's run_point.
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

#include "harness/experiment.h"
#include "obs/prof.h"
#include "serve/graph_store.h"
#include "serve/protocol.h"

namespace paserta {

class Tracer;

struct ServeSettings {
  /// Request groups simulated at once, each serially on one worker of the
  /// process pool; 0 = one per hardware thread.
  int threads = 0;
  /// Pending requests beyond which submit() rejects with "overloaded"
  /// (the 429-style backpressure bound).
  int queue_limit = 256;
  ServeLimits limits;
  /// Metrics sink; null = a service-owned scoped registry.
  MetricsRegistry* registry = nullptr;
  /// Optional span tracer, attached to the service's profiler: one span
  /// per phase charge (the dispatcher's on slot 0, each group's on its
  /// worker's slot), plus a "serve.request" span per request from submit
  /// to response on the slot that answered it (run arg = the request
  /// sequence number).
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

  struct JobProgress;  // service.cpp: one queued job's progress record

  /// submit() plus the transport hints a streaming front-end needs: the
  /// request's parsed "stream" flag, its echoed id and its progress record
  /// (for the {"event":"progress"} lines the server interleaves while
  /// waiting; null when the response resolved at submit).
  struct Submission {
    std::shared_future<std::string> response;
    bool stream = false;
    std::string id_json;
    std::shared_ptr<JobProgress> progress;
  };
  Submission submit_line(const std::string& line);

  /// Live state of one submitted job for its streamed progress lines: the
  /// pool chunks done/total of its own group (the profiler's progress view
  /// of the group's worker slot, minus its value when the group started;
  /// 0/0 while queued, frozen at the group's count once simulated), the
  /// job's phase (queued, simulate, respond) and the profiler's
  /// cycle/instruction totals (0 on the fallback clock). Never waits on
  /// the simulation; any thread.
  struct LiveProgress {
    std::uint64_t done = 0;
    std::uint64_t total = 0;
    const char* phase = "queued";
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
  };
  LiveProgress live_progress(const Submission& submission);

  /// The GET /healthz body: {"status":"ok","queue_depth":N,
  /// "uptime_s":...} built from atomics only — never touches the
  /// dispatcher lock, so a wedged dispatcher still answers liveness.
  std::string healthz_json();

  /// Drains every pending request (even while paused) and waits for every
  /// group in flight, stops the dispatcher and rejects later submits with
  /// "shutting_down". Idempotent; called by the destructor.
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
    std::shared_ptr<JobProgress> progress;
  };
  struct Group;  // service.cpp: one coalesced group, owned by its task

  void dispatcher_main();
  void process_batch(std::vector<std::unique_ptr<Job>>& batch);
  /// Simulates and answers `g` on the calling pool worker (`slot`).
  void run_group(Group& g, int slot);
  /// Answers `job` on `slot` (its thread's participant slot); `start` is
  /// when its group started (the end of its queue wait).
  void finish_job(Job& job, const std::string& response, int slot,
                  std::chrono::steady_clock::time_point start);
  /// Answers every job of `g` with the same error, on the dispatcher.
  void fail_group(Group& g, const std::string& code,
                  const std::string& message);

  ServeSettings settings_;
  int threads_ = 1;
  std::unique_ptr<MetricsRegistry> owned_registry_;
  MetricsRegistry* registry_ = nullptr;
  // Handles resolved once at construction; any thread writes them.
  Histogram* latency_ = nullptr;  // serve.request_seconds
  Histogram* queue_seconds_ = nullptr;
  Histogram* service_seconds_ = nullptr;
  Counter* requests_ = nullptr;
  Counter* rejected_ = nullptr;
  Counter* bad_requests_ = nullptr;
  Counter* hellos_ = nullptr;
  Counter* batches_ = nullptr;
  Counter* coalesced_ = nullptr;
  Counter* graph_interned_ = nullptr;
  Counter* responses_ = nullptr;
  Counter* errors_ = nullptr;
  Counter* cache_hits_ = nullptr;    // offline.cache.hits
  Counter* cache_misses_ = nullptr;  // offline.cache.misses
  Counter* evictions_ = nullptr;     // serve.graph_store.evictions
  Gauge* queue_depth_ = nullptr;
  Gauge* store_bytes_ = nullptr;     // serve.graph_store.bytes

  std::mutex m_;
  std::condition_variable cv_;       // dispatcher: queue, pause, stop
  std::condition_variable idle_cv_;  // dispatcher: a group finished
  std::vector<std::unique_ptr<Job>> queue_;
  bool paused_ = false;
  bool stopping_ = false;
  std::uint64_t next_seq_ = 0;
  int in_flight_ = 0;  // groups handed to the pool, not yet answered

  // Lock-free observability mirror (healthz): depth_ shadows
  // queue_.size() (stored under m_, read without it).
  const std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  std::atomic<std::size_t> depth_{0};

  // Phase profiler (DESIGN.md §17), with settings_.tracer attached.
  // serve.parse is charged by connection threads but only inside
  // submit_line's m_-held section (serialized writers, wall-clock only,
  // no span); serve.intern/group and offline.analyze run on the
  // dispatcher (slot 0), serve.simulate/respond and everything the
  // harness charges on each group's worker slot.
  Profiler prof_;
  int ph_parse_ = -1;
  int ph_intern_ = -1;
  int ph_group_ = -1;
  int ph_analyze_ = -1;
  int ph_simulate_ = -1;
  int ph_respond_ = -1;

  // Dispatcher-confined state (no locking: single thread).
  GraphStore store_;
  std::uint64_t last_interned_ = 0;  // store_.misses() already exported
  std::uint64_t last_evicted_ = 0;   // store_.evictions() already exported

  std::thread dispatcher_;
};

}  // namespace paserta
