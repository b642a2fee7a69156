#include "serve/service.h"

#include <bit>
#include <chrono>
#include <sstream>
#include <utility>

#include "apps/atr.h"
#include "apps/mpeg.h"
#include "apps/synthetic.h"
#include "common/error.h"
#include "common/version.h"
#include "graph/text_format.h"
#include "harness/json.h"
#include "obs/trace.h"

namespace paserta {
namespace {

// Queue-latency buckets, seconds. The top finite bound (30 s) comfortably
// covers the largest request the limits admit on this class of host.
constexpr double kLatencyBounds[] = {0.0005, 0.001, 0.0025, 0.005, 0.01,
                                     0.025,  0.05,  0.1,    0.25,  0.5,
                                     1.0,    2.5,   5.0,    10.0,  30.0};

Application build_app(const SimRequest& req) {
  if (req.graph_is_text) return load_application_string(req.graph);
  if (req.graph == "@atr") return apps::build_atr();
  if (req.graph == "@synthetic") return apps::build_synthetic();
  if (req.graph == "@mpeg") return apps::build_mpeg();
  PASERTA_REQUIRE(false, "unknown built-in workload " << req.graph
                         << " (use @atr, @synthetic or @mpeg)");
  return {};  // unreachable
}

LevelTable table_of(const std::string& name) {
  return name == "xscale" ? LevelTable::intel_xscale()
                          : LevelTable::transmeta_tm5400();
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

}  // namespace

SimService::SimService(ServeSettings settings)
    : settings_(settings), prof_(Profiler::Mode::kAuto, settings_.tracer) {
  if (settings_.registry != nullptr) {
    registry_ = settings_.registry;
  } else {
    owned_registry_ = std::make_unique<MetricsRegistry>();
    registry_ = owned_registry_.get();
  }
  latency_ = &registry_->histogram("serve.request_seconds", kLatencyBounds);
  ph_parse_ = prof_.phase("serve.parse", /*top_level=*/true);
  ph_intern_ = prof_.phase("serve.intern", /*top_level=*/true);
  ph_group_ = prof_.phase("serve.group", /*top_level=*/true);
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
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
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

SimService::LiveProgress SimService::live_progress() {
  ProfProgress base;
  {
    std::lock_guard<std::mutex> lk(m_);
    base = batch_base_;
  }
  // Read after the base: the view only grows, so the difference is the
  // batch's own chunks.
  const ProfProgress now = prof_.progress();
  LiveProgress lp;
  lp.done = now.done - base.done;
  lp.total = now.total - base.total;
  lp.phase = phase_.load(std::memory_order_relaxed);
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
  // mutex serializes the cell writes, keeping the single-writer contract.
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
    registry_->counter("serve.bad_requests").add(0, 1);
    sub.response = ready_future(render_error("", "bad_request", parse_error));
    return sub;
  }
  sub.stream = req.stream;
  sub.id_json = req.id_json;
  if (req.command == "hello") {
    std::lock_guard<std::mutex> lk(m_);
    prof_.add_ns(ph_parse_, 0, parse_ns);
    registry_->counter("serve.hellos").add(0, 1);
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
    registry_->counter("serve.rejected").add(0, 1);
    sub.response = ready_future(render_error(job->req.id_json, "shutting_down",
                                             "server is shutting down"));
    return sub;
  }
  if (queue_.size() >= static_cast<std::size_t>(settings_.queue_limit)) {
    registry_->counter("serve.rejected").add(0, 1);
    sub.response = ready_future(render_error(
        job->req.id_json, "overloaded",
        "queue full (" + std::to_string(queue_.size()) +
            " pending); retry later"));
    return sub;
  }
  job->seq = next_seq_++;
  registry_->counter("serve.requests").add(0, 1);
  sub.response = job->promise.get_future().share();
  queue_.push_back(std::move(job));
  depth_.store(queue_.size(), std::memory_order_relaxed);
  registry_->gauge("serve.queue_depth")
      .set(0, static_cast<double>(queue_.size()));
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
        if (stopping_) return;
        continue;
      }
      batch.swap(queue_);
      batch_base_ = prof_.progress();
      depth_.store(0, std::memory_order_relaxed);
      registry_->gauge("serve.queue_depth").set(0, 0.0);
    }
    process_batch(batch);
    batch.clear();
  }
}

void SimService::finish_job(Job& job, const std::string& response) {
  // Latency covers submit -> response ready; the histogram is
  // dispatcher-written only (single writer, shard 0).
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - job.t0)
          .count();
  latency_->record(0, seconds);
  if (settings_.tracer != nullptr) {
    settings_.tracer->record(0, "serve.request", job.ts_ns,
                             settings_.tracer->now_ns() - job.ts_ns,
                             /*point=*/-1,
                             static_cast<std::int64_t>(job.seq));
  }
  job.promise.set_value(response);
}

void SimService::process_batch(std::vector<std::unique_ptr<Job>>& batch) {
  registry_->counter("serve.batches").add(0, 1);

  // Group jobs by semantic key, preserving first-seen order. The
  // Application of each group's representative is interned so repeated
  // workloads hit the same object (and with it the OfflineCache).
  struct Group {
    const GraphStore::Entry* entry = nullptr;
    std::string app_name;  // the *request's* name, used for rendering
    std::vector<Job*> jobs;
  };
  std::vector<Group> groups;
  std::unordered_map<std::string, std::size_t> index;
  phase_.store("intern", std::memory_order_relaxed);
  for (auto& job : batch) {
    Application app;
    try {
      ProfScope intern_scope(&prof_, ph_intern_, 0);
      app = build_app(job->req);
    } catch (const std::exception& e) {
      registry_->counter("serve.bad_requests").add(0, 1);
      finish_job(*job, render_error(job->req.id_json, "bad_request",
                                    e.what()));
      continue;
    }
    std::string app_name = app.name;
    const GraphStore::Entry* entry = nullptr;
    {
      ProfScope intern_scope(&prof_, ph_intern_, 0);
      entry = &store_.intern(std::move(app));
    }
    ProfScope group_scope(&prof_, ph_group_, 0);
    const std::string key = group_key(job->req, entry->id, app_name);
    auto [it, inserted] = index.try_emplace(key, groups.size());
    if (inserted) {
      groups.push_back(Group{entry, std::move(app_name), {}});
    }
    groups[it->second].jobs.push_back(job.get());
  }
  registry_->counter("serve.graph_interned").add(0, store_.misses() -
                                                        last_interned_);
  last_interned_ = store_.misses();

  for (Group& g : groups) {
    if (g.jobs.size() > 1) {
      registry_->counter("serve.coalesced")
          .add(0, static_cast<std::uint64_t>(g.jobs.size() - 1));
    }
    const SimRequest& req = g.jobs.front()->req;
    std::string error_code;  // empty = the group simulated
    std::string response_error;
    std::string experiment_json;
    double elapsed_ms = 0.0;
    try {
      const Application& app = g.entry->app;
      ExperimentConfig cfg;
      cfg.cpus = req.cpus;
      cfg.table = table_of(req.table);
      cfg.runs = req.runs;
      cfg.seed = req.seed;
      cfg.threads = settings_.threads;
      cfg.dedup = settings_.dedup;
      cfg.heuristic = req.heuristic;
      if (!req.schemes.empty()) cfg.schemes = req.schemes;
      cfg.collect_metrics = true;
      cfg.registry = registry_;
      cfg.prof = &prof_;

      SweepPoint point;
      double x = 0.0;
      std::string x_name;
      phase_.store("simulate", std::memory_order_relaxed);
      {
        ProfScope sim_scope(&prof_, ph_simulate_, 0);
        SimTime deadline{};
        if (req.deadline_ms) {
          deadline = SimTime::from_ms(*req.deadline_ms);
          x = *req.deadline_ms;
          x_name = "deadline_ms";
        } else {
          // Same derivation as sweep_load: one canonical analysis per
          // (graph, cpus, budget, heuristic), shared across requests via
          // the long-lived cache. Export the get() delta ourselves — only
          // run_point's internal gets are exported by the harness.
          const std::uint64_t h0 = cache_.hits();
          const std::uint64_t m0 = cache_.misses();
          const CanonicalAnalysis& canon =
              cache_.get(app, canonical_options(cfg));
          registry_->counter("offline.cache.hits").add(0, cache_.hits() - h0);
          registry_->counter("offline.cache.misses")
              .add(0, cache_.misses() - m0);
          deadline = deadline_at_load(canon.worst_makespan(), req.load);
          x = req.load;
          x_name = "load";
        }

        const auto sim0 = std::chrono::steady_clock::now();
        point = run_point(app, cfg, deadline, x, &cache_);
        elapsed_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - sim0)
                         .count();
      }

      // Render the exact document `paserta_cli sweep --json` prints for
      // this point (minus its trailing newline) — the bit-identity
      // contract pinned by test_serve.
      phase_.store("respond", std::memory_order_relaxed);
      ProfScope render_scope(&prof_, ph_respond_, 0);
      JsonExportOptions jopt;
      jopt.experiment_id = g.app_name + "-" + x_name;
      jopt.caption = "paserta_cli sweep";
      jopt.x_name = x_name;
      experiment_json = sweep_to_json({point}, jopt);
    } catch (const Error& e) {
      // The library's user-misuse type: a request the model cannot run
      // (e.g. a load whose deadline leaves SimTime's range).
      error_code = "bad_request";
      response_error = e.what();
    } catch (const std::exception& e) {
      error_code = "internal";
      response_error = e.what();
    }

    ProfScope respond_scope(&prof_, ph_respond_, 0);
    for (Job* job : g.jobs) {
      if (!error_code.empty()) {
        registry_
            ->counter(error_code == "internal" ? "serve.errors"
                                               : "serve.bad_requests")
            .add(0, 1);
        finish_job(*job, render_error(job->req.id_json, error_code,
                                      response_error));
      } else {
        registry_->counter("serve.responses").add(0, 1);
        finish_job(*job,
                   render_result(job->req.id_json, g.entry->content_hash,
                                 static_cast<std::uint64_t>(g.jobs.size() - 1),
                                 elapsed_ms, experiment_json));
      }
    }
  }
  phase_.store("idle", std::memory_order_relaxed);
}

}  // namespace paserta
