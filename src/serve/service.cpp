#include "serve/service.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/version.h"
#include "graph/text_format.h"
#include "harness/figures.h"
#include "harness/json.h"
#include "harness/pool.h"
#include "obs/trace.h"

namespace paserta {
namespace {

// Latency buckets, seconds. The top finite bound (30 s) comfortably covers
// the largest request the limits admit on this class of host.
constexpr double kLatencyBounds[] = {0.0005, 0.001, 0.0025, 0.005, 0.01,
                                     0.025,  0.05,  0.1,    0.25,  0.5,
                                     1.0,    2.5,   5.0,    10.0,  30.0};

Application build_app(const SimRequest& req) {
  if (req.graph_is_text) return load_application_string(req.graph);
  return builtin_workload(req.graph);
}

/// The coalescing key: every request input that can influence the
/// response's "experiment" document. Two jobs with equal keys may share
/// one simulation; nothing else may.
std::string group_key(const SimRequest& req, std::uint32_t graph_id,
                      const std::string& app_name) {
  std::ostringstream k;
  // The response embeds experiment_id = app name, so coalescing across
  // same-structure graphs with different names must keep them apart only
  // in the rendered id — but the simulation inputs are identical. Still
  // key on the name: it keeps per-group rendering trivially uniform.
  k << graph_id << '|' << app_name << '|' << req.table << '|' << req.cpus
    << '|' << static_cast<int>(req.heuristic) << '|' << req.runs << '|'
    << req.seed << '|';
  for (Scheme s : req.schemes) k << static_cast<int>(s) << ',';
  k << '|';
  if (req.deadline_ms) {
    // Bit-pattern, not decimal text: keys must never merge two doubles
    // that simulate differently.
    k << 'd' << std::bit_cast<std::uint64_t>(*req.deadline_ms);
  } else {
    k << 'l' << std::bit_cast<std::uint64_t>(req.load);
  }
  return k.str();
}

std::shared_future<std::string> ready_future(std::string response) {
  std::promise<std::string> p;
  p.set_value(std::move(response));
  return p.get_future().share();
}

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

/// One job's progress, shared by the job and its submitter. The mutex
/// orders the reader against the group's start and end: the worker
/// freezes the counts before it can run another group on the same slot.
struct SimService::JobProgress {
  std::mutex m;
  int slot = -1;           // the group's worker slot; -1 while queued
  ProfProgress base;       // the slot's progress view at the group start
  ProfProgress frozen;     // the group's own counts once simulated
  bool simulated = false;
  const char* phase = "queued";
};

/// One coalesced group, resolved on the dispatcher and owned by its task.
struct SimService::Group {
  std::shared_ptr<const GraphStore::Entry> entry;  // alive while in flight
  std::string app_name;  // the *request's* name, used for rendering
  std::vector<std::unique_ptr<Job>> jobs;
  ExperimentConfig cfg;
  CanonicalAnalysis canon;
  SimTime deadline{};
  double x = 0.0;
  const char* x_name = "load";
};

SimService::SimService(ServeSettings settings)
    : settings_(settings), prof_(Profiler::Mode::kAuto, settings_.tracer) {
  PASERTA_REQUIRE(settings_.threads >= 0,
                  "serve threads must be non-negative");
  WorkerPool& pool = WorkerPool::process_pool();
  threads_ = settings_.threads > 0 ? settings_.threads
                                   : std::max(1, pool.thread_count());
  pool.ensure_threads(threads_);
  if (settings_.registry != nullptr) {
    registry_ = settings_.registry;
  } else {
    owned_registry_ = std::make_unique<MetricsRegistry>();
    registry_ = owned_registry_.get();
  }
  MetricsRegistry& reg = *registry_;
  latency_ = &reg.histogram("serve.request_seconds", kLatencyBounds);
  queue_seconds_ = &reg.histogram("serve.queue_seconds", kLatencyBounds);
  service_seconds_ = &reg.histogram("serve.service_seconds", kLatencyBounds);
  requests_ = &reg.counter("serve.requests");
  rejected_ = &reg.counter("serve.rejected");
  bad_requests_ = &reg.counter("serve.bad_requests");
  hellos_ = &reg.counter("serve.hellos");
  batches_ = &reg.counter("serve.batches");
  coalesced_ = &reg.counter("serve.coalesced");
  graph_interned_ = &reg.counter("serve.graph_interned");
  responses_ = &reg.counter("serve.responses");
  errors_ = &reg.counter("serve.errors");
  cache_hits_ = &reg.counter("offline.cache.hits");
  cache_misses_ = &reg.counter("offline.cache.misses");
  evictions_ = &reg.counter("serve.graph_store.evictions");
  queue_depth_ = &reg.gauge("serve.queue_depth");
  store_bytes_ = &reg.gauge("serve.graph_store.bytes");
  ph_parse_ = prof_.phase("serve.parse", /*top_level=*/true);
  ph_intern_ = prof_.phase("serve.intern", /*top_level=*/true);
  ph_group_ = prof_.phase("serve.group", /*top_level=*/true);
  ph_analyze_ = prof_.phase("offline.analyze", /*top_level=*/true);
  ph_simulate_ = prof_.phase("serve.simulate", /*top_level=*/true);
  ph_respond_ = prof_.phase("serve.respond", /*top_level=*/true);
  dispatcher_ = std::thread([this] { dispatcher_main(); });
}

SimService::~SimService() { shutdown(); }

MetricsRegistry& SimService::registry() { return *registry_; }

std::string SimService::metrics_text() {
  // Fold the profiler's phase totals into the registry as prof.* counter
  // deltas first, so /metrics carries them alongside serve.*.
  prof_.export_delta_to(*registry_);
  return "# " + build_version_string() + "\n" +
         metrics_to_prometheus(registry_->snapshot());
}

std::string SimService::healthz_json() {
  const double uptime =
      seconds_between(start_, std::chrono::steady_clock::now());
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object()
      .key("status").value("ok")
      .key("queue_depth")
      .value(static_cast<std::uint64_t>(
          depth_.load(std::memory_order_relaxed)))
      .key("uptime_s").value(uptime)
      .end_object();
  return os.str();
}

SimService::LiveProgress SimService::live_progress(const Submission& sub) {
  LiveProgress lp;
  if (sub.progress != nullptr) {
    JobProgress& jp = *sub.progress;
    std::lock_guard<std::mutex> lk(jp.m);
    lp.phase = jp.phase;
    if (jp.simulated) {
      lp.done = jp.frozen.done;
      lp.total = jp.frozen.total;
    } else if (jp.slot >= 0) {
      // The slot's view only grows while the group runs on it, so the
      // difference is the group's own chunks.
      const ProfProgress now = prof_.progress(jp.slot);
      lp.done = now.done - jp.base.done;
      lp.total = now.total - jp.base.total;
    }
  }
  for (const ProfPhaseTotals& t : prof_.snapshot()) {
    lp.cycles += t.cycles;
    lp.instructions += t.instructions;
  }
  return lp;
}

std::size_t SimService::queue_depth() {
  std::lock_guard<std::mutex> lk(m_);
  return queue_.size();
}

std::shared_future<std::string> SimService::submit(const std::string& line) {
  return submit_line(line).response;
}

SimService::Submission SimService::submit_line(const std::string& line) {
  // Parsing runs concurrently on connection threads, so it is timed here
  // and charged to serve.parse inside the m_-held sections below — the
  // mutex serializes the writes to the profiler's slot-0 cell.
  const auto p0 = std::chrono::steady_clock::now();
  SimRequest req;
  std::string parse_error;
  try {
    req = parse_request(line, settings_.limits);
  } catch (const std::exception& e) {
    parse_error = e.what();
  }
  const auto parse_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - p0)
          .count());

  Submission sub;
  if (!parse_error.empty()) {
    std::lock_guard<std::mutex> lk(m_);
    prof_.add_ns(ph_parse_, 0, parse_ns);
    bad_requests_->add();
    sub.response = ready_future(render_error("", "bad_request", parse_error));
    return sub;
  }
  sub.stream = req.stream;
  sub.id_json = req.id_json;
  if (req.command == "hello") {
    std::lock_guard<std::mutex> lk(m_);
    prof_.add_ns(ph_parse_, 0, parse_ns);
    hellos_->add();
    sub.response = ready_future(render_hello(req.id_json));
    return sub;
  }

  auto job = std::make_unique<Job>();
  job->req = std::move(req);
  job->t0 = std::chrono::steady_clock::now();
  if (settings_.tracer != nullptr) job->ts_ns = settings_.tracer->now_ns();

  std::lock_guard<std::mutex> lk(m_);
  prof_.add_ns(ph_parse_, 0, parse_ns);
  if (stopping_) {
    rejected_->add();
    sub.response = ready_future(render_error(job->req.id_json, "shutting_down",
                                             "server is shutting down"));
    return sub;
  }
  if (queue_.size() >= static_cast<std::size_t>(settings_.queue_limit)) {
    rejected_->add();
    sub.response = ready_future(render_error(
        job->req.id_json, "overloaded",
        "queue full (" + std::to_string(queue_.size()) +
            " pending); retry later"));
    return sub;
  }
  job->seq = next_seq_++;
  job->progress = std::make_shared<JobProgress>();
  requests_->add();
  sub.response = job->promise.get_future().share();
  sub.progress = job->progress;
  queue_.push_back(std::move(job));
  depth_.store(queue_.size(), std::memory_order_relaxed);
  queue_depth_->set(static_cast<double>(queue_.size()));
  cv_.notify_all();
  return sub;
}

void SimService::pause_dispatch() {
  std::lock_guard<std::mutex> lk(m_);
  paused_ = true;
}

void SimService::resume_dispatch() {
  {
    std::lock_guard<std::mutex> lk(m_);
    paused_ = false;
  }
  cv_.notify_all();
}

void SimService::shutdown() {
  {
    std::lock_guard<std::mutex> lk(m_);
    if (stopping_ && !dispatcher_.joinable()) return;
    stopping_ = true;
    paused_ = false;  // shutdown drains even a paused queue
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

void SimService::dispatcher_main() {
  std::vector<std::unique_ptr<Job>> batch;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(m_);
      cv_.wait(lk, [this] {
        return stopping_ || (!paused_ && !queue_.empty());
      });
      if (queue_.empty()) {
        // Stopping: the queue is drained, so wait for the groups still
        // in flight — they use this service's registry and profiler.
        idle_cv_.wait(lk, [this] { return in_flight_ == 0; });
        return;
      }
      batch.swap(queue_);
      depth_.store(0, std::memory_order_relaxed);
      queue_depth_->set(0.0);
    }
    process_batch(batch);
    batch.clear();
  }
}

void SimService::finish_job(Job& job, const std::string& response, int slot,
                            std::chrono::steady_clock::time_point start) {
  // Queue wait runs from submit to the group's start, service time from
  // there to the response: together the request latency, from the same
  // three clock reads.
  const auto end = std::chrono::steady_clock::now();
  latency_->record(seconds_between(job.t0, end));
  queue_seconds_->record(seconds_between(job.t0, start));
  service_seconds_->record(seconds_between(start, end));
  if (settings_.tracer != nullptr) {
    settings_.tracer->record(slot, "serve.request", job.ts_ns,
                             settings_.tracer->now_ns() - job.ts_ns,
                             /*point=*/-1,
                             static_cast<std::int64_t>(job.seq));
  }
  job.promise.set_value(response);
}

void SimService::fail_group(Group& g, const std::string& code,
                            const std::string& message) {
  const auto start = std::chrono::steady_clock::now();
  ProfScope respond_scope(&prof_, ph_respond_, 0);
  (code == "internal" ? errors_ : bad_requests_)
      ->add(static_cast<std::uint64_t>(g.jobs.size()));
  for (auto& job : g.jobs)
    finish_job(*job, render_error(job->req.id_json, code, message), 0, start);
}

void SimService::process_batch(std::vector<std::unique_ptr<Job>>& batch) {
  batches_->add();

  // Group jobs by semantic key, preserving first-seen order. The
  // Application of each group's representative is interned so repeated
  // workloads hit the same resident entry (and its analyses).
  std::vector<std::shared_ptr<Group>> groups;
  std::unordered_map<std::string, std::size_t> index;
  for (auto& job : batch) {
    Application app;
    try {
      ProfScope intern_scope(&prof_, ph_intern_, 0);
      app = build_app(job->req);
    } catch (const std::exception& e) {
      Group bad;
      bad.jobs.push_back(std::move(job));
      fail_group(bad, "bad_request", e.what());
      continue;
    }
    std::string app_name = app.name;
    std::shared_ptr<const GraphStore::Entry> entry;
    {
      ProfScope intern_scope(&prof_, ph_intern_, 0);
      entry = store_.intern(std::move(app));
    }
    ProfScope group_scope(&prof_, ph_group_, 0);
    const std::string key = group_key(job->req, entry->id, app_name);
    auto [it, inserted] = index.try_emplace(key, groups.size());
    if (inserted) {
      auto g = std::make_shared<Group>();
      g->entry = std::move(entry);
      g->app_name = std::move(app_name);
      groups.push_back(std::move(g));
    }
    groups[it->second]->jobs.push_back(std::move(job));
  }
  graph_interned_->add(store_.misses() - last_interned_);
  last_interned_ = store_.misses();

  WorkerPool& pool = WorkerPool::process_pool();
  for (std::shared_ptr<Group>& gp : groups) {
    Group& g = *gp;
    if (g.jobs.size() > 1)
      coalesced_->add(static_cast<std::uint64_t>(g.jobs.size() - 1));
    const SimRequest& req = g.jobs.front()->req;
    try {
      ExperimentConfig& cfg = g.cfg;
      cfg.cpus = req.cpus;
      cfg.table = LevelTable::from_name(req.table);
      cfg.runs = req.runs;
      cfg.seed = req.seed;
      cfg.threads = 1;  // one group, one worker: concurrency is across groups
      cfg.dedup = settings_.dedup;
      cfg.heuristic = req.heuristic;
      if (!req.schemes.empty()) cfg.schemes = req.schemes;
      cfg.collect_metrics = true;
      cfg.registry = registry_;
      cfg.prof = &prof_;
      {
        // Same derivation as sweep_load: one canonical analysis per
        // (graph, cpus, budget, heuristic), kept by the graph's entry and
        // shared across requests.
        ProfScope analyze_scope(&prof_, ph_analyze_, 0);
        bool hit = false;
        g.canon = store_.analysis(g.entry, canonical_options(cfg), hit);
        (hit ? cache_hits_ : cache_misses_)->add();
      }
      if (req.deadline_ms) {
        g.deadline = SimTime::from_ms(*req.deadline_ms);
        g.x = *req.deadline_ms;
        g.x_name = "deadline_ms";
      } else {
        g.deadline = deadline_at_load(g.canon.worst_makespan(), req.load);
        g.x = req.load;
      }
    } catch (const Error& e) {
      // The library's user-misuse type: a request the model cannot run
      // (e.g. a load whose deadline leaves SimTime's range).
      fail_group(g, "bad_request", e.what());
      continue;
    } catch (const std::exception& e) {
      fail_group(g, "internal", e.what());
      continue;
    }
    {
      // Hand the group off once fewer than threads_ are in flight.
      std::unique_lock<std::mutex> lk(m_);
      idle_cv_.wait(lk, [this] { return in_flight_ < threads_; });
      ++in_flight_;
    }
    pool.submit([this, gp](int slot) {
      run_group(*gp, slot);
      // Notify under the lock: once in_flight_ reaches 0 the dispatcher
      // may return and the service be destroyed.
      std::lock_guard<std::mutex> lk(m_);
      --in_flight_;
      idle_cv_.notify_all();
    });
  }
  store_bytes_->set(static_cast<double>(store_.resident_bytes()));
  evictions_->add(store_.evictions() - last_evicted_);
  last_evicted_ = store_.evictions();
}

void SimService::run_group(Group& g, int slot) {
  const auto start = std::chrono::steady_clock::now();
  for (auto& job : g.jobs) {
    std::lock_guard<std::mutex> lk(job->progress->m);
    job->progress->slot = slot;
    job->progress->base = prof_.progress(slot);
    job->progress->phase = "simulate";
  }
  std::string error_code;  // empty = the group simulated
  std::string response_error;
  std::string experiment_json;
  double elapsed_ms = 0.0;
  try {
    SweepPoint point;
    {
      ProfScope sim_scope(&prof_, ph_simulate_, slot);
      const auto sim0 = std::chrono::steady_clock::now();
      point = run_point(g.entry->app, g.cfg, g.deadline, g.x, &g.canon);
      elapsed_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - sim0)
                       .count();
    }
    // Freeze each job's progress at its group's count before this slot
    // can run anything else.
    for (auto& job : g.jobs) {
      JobProgress& jp = *job->progress;
      std::lock_guard<std::mutex> lk(jp.m);
      const ProfProgress now = prof_.progress(slot);
      jp.frozen = {now.done - jp.base.done, now.total - jp.base.total};
      jp.simulated = true;
      jp.phase = "respond";
    }
    // Render the exact document `paserta_cli sweep --json` prints for
    // this point (minus its trailing newline) — the bit-identity contract
    // pinned by test_serve.
    ProfScope render_scope(&prof_, ph_respond_, slot);
    JsonExportOptions jopt;
    jopt.experiment_id = g.app_name + "-" + g.x_name;
    jopt.caption = "paserta_cli sweep";
    jopt.x_name = g.x_name;
    experiment_json = sweep_to_json({point}, jopt);
  } catch (const Error& e) {
    error_code = "bad_request";
    response_error = e.what();
  } catch (const std::exception& e) {
    error_code = "internal";
    response_error = e.what();
  }

  ProfScope respond_scope(&prof_, ph_respond_, slot);
  for (auto& job : g.jobs) {
    if (!error_code.empty()) {
      (error_code == "internal" ? errors_ : bad_requests_)->add();
      finish_job(*job, render_error(job->req.id_json, error_code,
                                    response_error),
                 slot, start);
    } else {
      responses_->add();
      finish_job(*job,
                 render_result(job->req.id_json, g.entry->content_hash,
                               static_cast<std::uint64_t>(g.jobs.size() - 1),
                               elapsed_ms, experiment_json),
                 slot, start);
    }
  }
}

}  // namespace paserta
