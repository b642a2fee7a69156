// End-to-end tests for the resident simulation service (src/serve):
// protocol parsing, the service core (coalescing, cross-request caching,
// backpressure, graceful drain) and the socket front-end (NDJSON + HTTP,
// concurrent clients, timeouts). The bit-identity case pins the serve
// contract: a result's "experiment" document is byte-for-byte what
// `paserta_cli sweep --json` prints for the same point. Labeled
// serve_smoke; CI runs it in the Release and TSan jobs.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/atr.h"
#include "common/error.h"
#include "common/version.h"
#include "harness/experiment.h"
#include "harness/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/graph_store.h"
#include "serve/loadgen.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"

namespace paserta {
namespace {

constexpr int kRuns = 20;  // small Monte-Carlo load: these are smoke tests

std::string atr_request(double load = 0.5, int runs = kRuns,
                        const std::string& extra = "") {
  return "{\"graph\":\"@atr\",\"runs\":" + std::to_string(runs) +
         ",\"load\":" + std::to_string(load) + extra + "}";
}

std::uint64_t counter(SimService& service, const std::string& name) {
  for (const auto& row : service.registry().snapshot().counters)
    if (row.name == name) return row.value;
  return 0;
}

/// The exact document the offline CLI prints for this point:
/// `paserta_cli sweep @atr --json --runs R --from L --to L --step 1`
/// (minus the trailing newline the CLI adds after the document).
std::string expected_cli_document(double load, int runs) {
  ExperimentConfig cfg;
  cfg.cpus = 2;
  cfg.table = LevelTable::transmeta_tm5400();
  cfg.runs = runs;
  cfg.seed = 1;
  const std::vector<SweepPoint> points =
      sweep_load(apps::build_atr(), cfg, {load});
  JsonExportOptions jopt;
  jopt.experiment_id = "atr-load";
  jopt.caption = "paserta_cli sweep";
  jopt.x_name = "load";
  return sweep_to_json(points, jopt);
}

// ----------------------------------------------------------- protocol

TEST(ServeProtocol, ParsesMinimalAndFullRequests) {
  const ServeLimits limits;
  const SimRequest min = parse_request("{\"graph\":\"@atr\"}", limits);
  EXPECT_EQ(min.command, "simulate");
  EXPECT_EQ(min.graph, "@atr");
  EXPECT_EQ(min.cpus, 2);
  EXPECT_EQ(min.runs, 200);
  EXPECT_DOUBLE_EQ(min.load, 0.5);
  EXPECT_TRUE(min.schemes.empty());  // = the CLI's default five

  const SimRequest full = parse_request(
      "{\"id\":\"r1\",\"graph\":{\"text\":\"task T 4 2\\n\"},"
      "\"table\":\"xscale\",\"cpus\":4,\"runs\":7,\"seed\":9,"
      "\"heuristic\":\"stf\",\"schemes\":[\"gss\",\"as\"],"
      "\"deadline_ms\":12.5}",
      limits);
  EXPECT_EQ(full.id_json, "\"r1\"");
  EXPECT_TRUE(full.graph_is_text);
  EXPECT_EQ(full.table, "xscale");
  EXPECT_EQ(full.cpus, 4);
  EXPECT_EQ(full.runs, 7);
  EXPECT_EQ(full.seed, 9u);
  EXPECT_EQ(full.heuristic, ListHeuristic::ShortestTaskFirst);
  EXPECT_EQ(full.schemes,
            (std::vector<Scheme>{Scheme::GSS, Scheme::AS}));
  ASSERT_TRUE(full.deadline_ms.has_value());
  EXPECT_DOUBLE_EQ(*full.deadline_ms, 12.5);

  // 2^53, the largest seed a JSON number carries exactly, is accepted.
  const SimRequest big_seed = parse_request(
      "{\"graph\":\"@atr\",\"seed\":9007199254740992}", limits);
  EXPECT_EQ(big_seed.seed, std::uint64_t{1} << 53);
}

TEST(ServeProtocol, RejectsInvalidRequests) {
  const ServeLimits limits;
  // Malformed JSON surfaces the parser's byte offset.
  try {
    parse_request("{\"graph\": nope}", limits);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos);
  }
  EXPECT_THROW(parse_request("[1,2]", limits), Error);
  EXPECT_THROW(parse_request("{\"cmd\":\"drop\"}", limits), Error);
  EXPECT_THROW(parse_request("{\"graph\":\"no-at-prefix\"}", limits), Error);
  EXPECT_THROW(parse_request("{\"graph\":\"@nope\",\"cpus\":0}", limits),
               Error);
  EXPECT_THROW(parse_request("{\"graph\":\"@atr\",\"runs\":1.5}", limits),
               Error);
  EXPECT_THROW(parse_request("{\"graph\":\"@atr\",\"schemes\":[]}", limits),
               Error);
  EXPECT_THROW(
      parse_request("{\"graph\":\"@atr\",\"load\":0.5,\"deadline_ms\":1}",
                    limits),
      Error);
  EXPECT_THROW(parse_request("{\"graph\":\"@atr\",\"load\":1.5}", limits),
               Error);
  EXPECT_THROW(parse_request("{\"graph\":\"@atr\",\"id\":[1]}", limits),
               Error);
  // Numbers past what the seed and SimTime conversions hold: a seed above
  // 2^53 (2^53 + 1 parses to the double 2^53) and a deadline above 2^63 ps.
  EXPECT_THROW(parse_request("{\"graph\":\"@atr\",\"seed\":1e30}", limits),
               Error);
  EXPECT_THROW(
      parse_request("{\"graph\":\"@atr\",\"seed\":9007199254740993}", limits),
      Error);
  EXPECT_THROW(
      parse_request("{\"graph\":\"@atr\",\"deadline_ms\":1e10}", limits),
      Error);
  // Size limits: request line and inline graph text.
  ServeLimits tiny;
  tiny.max_request_bytes = 16;
  EXPECT_THROW(parse_request(atr_request(), tiny), Error);
  ServeLimits small_graph;
  small_graph.max_graph_text_bytes = 4;
  EXPECT_THROW(
      parse_request("{\"graph\":{\"text\":\"task T 4 2\\n\"}}", small_graph),
      Error);
  // Messages reach clients verbatim: they name the violated rule, never a
  // source location of the build.
  for (const char* line :
       {"{\"graph\": nope}", "[1,2]", "{\"graph\":\"no-at-prefix\"}",
        "{\"graph\":\"@atr\",\"seed\":1e30}",
        "{\"graph\":\"@atr\",\"load\":1.5}"}) {
    try {
      parse_request(line, limits);
      ADD_FAILURE() << "expected Error for " << line;
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()).find(".cpp:"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ServeProtocol, RendersSingleLineResponses) {
  const std::string err = render_error("42", "bad_request", "broken\nthing");
  EXPECT_EQ(err.find('\n'), std::string::npos);
  const JsonValue v = json_parse(err);
  EXPECT_DOUBLE_EQ(v.at("id").number, 42.0);
  EXPECT_EQ(v.at("type").str, "error");
  EXPECT_EQ(v.at("code").str, "bad_request");
  EXPECT_EQ(v.at("message").str, "broken\nthing");

  const JsonValue hello = json_parse(render_hello("\"h\""));
  EXPECT_EQ(hello.at("type").str, "hello");
  EXPECT_EQ(hello.at("git_rev").str, build_git_rev());
  EXPECT_EQ(hello.at("build").str, build_type());
  EXPECT_DOUBLE_EQ(hello.at("proto").number, 1.0);
}

TEST(ServeProtocol, HashHexIsFixedWidthLowercase) {
  EXPECT_EQ(hash_hex(0), "0000000000000000");
  EXPECT_EQ(hash_hex(0xABCDEF0123456789ull), "abcdef0123456789");
}

// ------------------------------------------------------------ service

TEST(ServeService, HelloAndParseErrorsResolveImmediately) {
  SimService service(ServeSettings{});
  const std::string hello =
      service.submit("{\"id\":7,\"cmd\":\"hello\"}").get();
  EXPECT_EQ(json_parse(hello).at("type").str, "hello");
  EXPECT_DOUBLE_EQ(json_parse(hello).at("id").number, 7.0);

  const std::string err = service.submit("{oops").get();
  EXPECT_EQ(json_parse(err).at("code").str, "bad_request");
  EXPECT_EQ(counter(service, "serve.bad_requests"), 1u);
}

TEST(ServeService, ResultBitIdenticalToOfflineCli) {
  SimService service(ServeSettings{});
  const std::string response = service.submit(atr_request()).get();
  const std::string expected = expected_cli_document(0.5, kRuns);
  const std::string marker = "\"experiment\":";
  const std::size_t at = response.find(marker);
  ASSERT_NE(at, std::string::npos);
  // The spliced document runs to the response's final '}'.
  const std::string spliced =
      response.substr(at + marker.size(),
                      response.size() - (at + marker.size()) - 1);
  EXPECT_EQ(spliced, expected);  // byte-for-byte
  const JsonValue v = json_parse(response);
  EXPECT_EQ(v.at("type").str, "result");
  EXPECT_EQ(v.at("graph_hash").str.size(), 16u);
}

TEST(ServeService, CrossRequestCacheHitsAreObservable) {
  SimService service(ServeSettings{});
  service.submit(atr_request()).get();
  const std::uint64_t misses_after_first =
      counter(service, "offline.cache.misses");
  const std::uint64_t hits_after_first = counter(service, "offline.cache.hits");
  EXPECT_GE(misses_after_first, 1u);

  service.submit(atr_request()).get();
  // Second identical request: canonical analysis comes from the cache —
  // hits grow, misses do not.
  EXPECT_EQ(counter(service, "offline.cache.misses"), misses_after_first);
  EXPECT_GT(counter(service, "offline.cache.hits"), hits_after_first);
  // And the graph store interned the second parse onto the first object.
  EXPECT_EQ(counter(service, "serve.graph_interned"), 1u);
}

TEST(ServeService, CoalescesIdenticalPendingRequests) {
  SimService service(ServeSettings{});
  service.pause_dispatch();
  auto f1 = service.submit(atr_request());
  auto f2 = service.submit(atr_request());
  auto f3 = service.submit(atr_request());
  auto other = service.submit(atr_request(0.8));
  EXPECT_EQ(service.queue_depth(), 4u);
  service.resume_dispatch();

  const std::string r1 = f1.get(), r2 = f2.get(), r3 = f3.get();
  const std::string r_other = other.get();
  // The three identical requests shared one simulation...
  EXPECT_EQ(counter(service, "serve.coalesced"), 2u);
  EXPECT_DOUBLE_EQ(json_parse(r1).at("coalesced").number, 2.0);
  // ...and their experiment documents are identical bytes (elapsed_ms
  // may differ, the simulation result may not).
  const auto doc = [](const std::string& r) {
    return r.substr(r.find("\"experiment\":"));
  };
  EXPECT_EQ(doc(r1), doc(r2));
  EXPECT_EQ(doc(r2), doc(r3));
  EXPECT_NE(doc(r1), doc(r_other));
  EXPECT_EQ(counter(service, "serve.batches"), 1u);
}

TEST(ServeService, BackpressureRejectsBeyondQueueLimit) {
  ServeSettings settings;
  settings.queue_limit = 2;
  SimService service(settings);
  service.pause_dispatch();
  auto f1 = service.submit(atr_request(0.4));
  auto f2 = service.submit(atr_request(0.5));
  auto f3 = service.submit(atr_request(0.6));  // over the limit
  const JsonValue rejected = json_parse(f3.get());
  EXPECT_EQ(rejected.at("type").str, "error");
  EXPECT_EQ(rejected.at("code").str, "overloaded");
  EXPECT_EQ(counter(service, "serve.rejected"), 1u);
  service.resume_dispatch();
  EXPECT_EQ(json_parse(f1.get()).at("type").str, "result");
  EXPECT_EQ(json_parse(f2.get()).at("type").str, "result");
}

TEST(ServeService, GracefulShutdownDrainsPendingRequests) {
  auto service = std::make_unique<SimService>(ServeSettings{});
  service->pause_dispatch();
  std::vector<std::shared_future<std::string>> futures;
  for (int i = 0; i < 3; ++i)
    futures.push_back(service->submit(atr_request(0.4 + 0.1 * i)));
  // shutdown() must drain the paused queue before stopping.
  service->shutdown();
  for (auto& f : futures)
    EXPECT_EQ(json_parse(f.get()).at("type").str, "result");
  // After shutdown, new submissions are turned away in order.
  const JsonValue late = json_parse(service->submit(atr_request()).get());
  EXPECT_EQ(late.at("code").str, "shutting_down");
}

TEST(ServeService, AsyncGraphAndConfigErrorsAreStructured) {
  SimService service(ServeSettings{});
  // Graph text parse errors surface from the dispatcher.
  const JsonValue bad_text = json_parse(
      service.submit("{\"graph\":{\"text\":\"task broken\"}}").get());
  EXPECT_EQ(bad_text.at("type").str, "error");
  EXPECT_EQ(bad_text.at("code").str, "bad_request");
  // Unknown builtin, same path.
  const JsonValue bad_builtin =
      json_parse(service.submit("{\"graph\":\"@nope\"}").get());
  EXPECT_EQ(bad_builtin.at("code").str, "bad_request");
  EXPECT_EQ(counter(service, "serve.bad_requests"), 2u);
  // A load inside (0, 1] whose deadline W / load leaves SimTime's range
  // fails by name instead of reaching the simulation as garbage — and it
  // is the request's fault, not the server's.
  const JsonValue tiny_load = json_parse(
      service.submit("{\"graph\":\"@atr\",\"load\":1e-300}").get());
  EXPECT_EQ(tiny_load.at("type").str, "error");
  EXPECT_EQ(tiny_load.at("code").str, "bad_request");
  EXPECT_NE(tiny_load.at("message").str.find("load 1e-300"),
            std::string::npos)
      << tiny_load.at("message").str;
  EXPECT_EQ(counter(service, "serve.bad_requests"), 3u);
  EXPECT_EQ(counter(service, "serve.errors"), 0u);
  for (const JsonValue* v : {&bad_text, &bad_builtin, &tiny_load})
    EXPECT_EQ(v->at("message").str.find(".cpp:"), std::string::npos)
        << v->at("message").str;
}

TEST(ServeService, InlineTextMatchesEquivalentRun) {
  // An inline graph simulates and renders under its own app name.
  SimService service(ServeSettings{});
  const std::string response =
      service
          .submit("{\"graph\":{\"text\":\"app tiny\\ntask T 4 2\\n\"},"
                  "\"runs\":5}")
          .get();
  const JsonValue v = json_parse(response);
  EXPECT_EQ(v.at("type").str, "result");
  EXPECT_EQ(v.at("experiment").at("experiment").str, "tiny-load");
}

TEST(ServeService, MetricsTextCarriesProvenanceHeader) {
  SimService service(ServeSettings{});
  service.submit(atr_request()).get();
  const std::string text = service.metrics_text();
  EXPECT_EQ(text.rfind("# " + build_version_string(), 0), 0u);
  EXPECT_NE(text.find("serve_requests 1"), std::string::npos);
}

TEST(ServeService, TracerRecordsRequestSpans) {
  Tracer tracer;
  ServeSettings settings;
  settings.tracer = &tracer;
  {
    SimService service(settings);
    service.submit(atr_request()).get();
    service.submit(atr_request()).get();
    service.shutdown();
  }
  int request_spans = 0, simulate_spans = 0;
  for (const TraceEvent& e : tracer.events()) {
    if (std::string(e.name) == "serve.request") ++request_spans;
    if (std::string(e.name) == "serve.simulate") ++simulate_spans;
  }
  EXPECT_EQ(request_spans, 2);
  EXPECT_GE(simulate_spans, 1);
}

TEST(ServeService, LiveProgressCountsTheJobsOwnGroup) {
  // Streamed progress reports the job's own group: 0/0 while queued, then
  // the pool chunks of that group alone, even with another group in
  // flight beside it. One group runs serially on one worker, where 1000
  // runs make 8 chunks of 125 and 50 runs 4 chunks of 16.
  ServeSettings settings;
  settings.threads = 2;
  SimService service(settings);
  service.pause_dispatch();
  const SimService::Submission big =
      service.submit_line(atr_request(0.5, 1000));
  const SimService::Submission small =
      service.submit_line(atr_request(0.5, 50));
  const SimService::LiveProgress queued = service.live_progress(big);
  EXPECT_EQ(queued.done, 0u);
  EXPECT_EQ(queued.total, 0u);
  EXPECT_STREQ(queued.phase, "queued");
  service.resume_dispatch();
  big.response.get();
  small.response.get();
  const SimService::LiveProgress lb = service.live_progress(big);
  const SimService::LiveProgress ls = service.live_progress(small);
  EXPECT_EQ(lb.done, 8u);
  EXPECT_EQ(lb.total, 8u);
  EXPECT_EQ(ls.done, 4u);
  EXPECT_EQ(ls.total, 4u);
  EXPECT_STREQ(ls.phase, "respond");
}

/// The "experiment" document of a result response.
std::string experiment_of(const std::string& response) {
  const std::string marker = "\"experiment\":";
  const std::size_t at = response.find(marker);
  return at == std::string::npos ? response : response.substr(at);
}

TEST(ServeService, ConcurrentGroupsMatchOneAtATime) {
  // 24 distinct requests over the three built-ins and an inline graph,
  // both tables, cpus 2 and 4, and 50 to 1000 runs: simulated up to four
  // groups at a time they answer exactly what one group at a time does.
  std::vector<std::string> lines;
  const char* const graphs[] = {"\"@atr\"", "\"@mpeg\"", "\"@synthetic\"",
                                "{\"text\":\"app inl\\nsection\\ntask a 4 2"
                                "\\ntask b 3 1\\nedge a b\\nend\\ntask c 2 1"
                                "\\n\"}"};
  const int runs[] = {50, 200, 1000};
  for (int i = 0; i < 24; ++i) {
    lines.push_back(std::string("{\"graph\":") + graphs[i % 4] +
                    ",\"table\":\"" + (i % 2 == 0 ? "transmeta" : "xscale") +
                    "\",\"cpus\":" + (i % 3 == 0 ? "4" : "2") +
                    ",\"runs\":" + std::to_string(runs[i % 3]) +
                    ",\"seed\":" + std::to_string(1 + i / 8) + "}");
  }
  const auto answer = [&](int threads) {
    ServeSettings settings;
    settings.threads = threads;
    SimService service(settings);
    service.pause_dispatch();
    std::vector<std::shared_future<std::string>> futures;
    for (const std::string& line : lines)
      futures.push_back(service.submit(line));
    service.resume_dispatch();
    std::vector<std::string> docs;
    for (auto& f : futures) docs.push_back(experiment_of(f.get()));
    return docs;
  };
  const std::vector<std::string> serial = answer(1);
  const std::vector<std::string> concurrent = answer(4);
  ASSERT_EQ(serial.size(), lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    SCOPED_TRACE(lines[i]);
    EXPECT_NE(serial[i].find("\"points\""), std::string::npos) << serial[i];
    EXPECT_EQ(concurrent[i], serial[i]);  // byte for byte
  }
}

TEST(ServeService, LatencySplitsIntoQueueAndServiceTime) {
  // Every answered job records its queue wait (submit to group start) and
  // its service time (group start to response) beside its latency, from
  // the same clock reads: the counts equal the responses, and per job
  // queue + service = request.
  SimService service(ServeSettings{});
  const auto histogram = [&](const std::string& name) {
    for (const auto& row : service.registry().snapshot().histograms)
      if (row.name == name) return row;
    ADD_FAILURE() << "no histogram " << name;
    return MetricsSnapshot::HistogramRow{};
  };
  double request0 = 0.0, queue0 = 0.0, service0 = 0.0;
  for (int i = 0; i < 4; ++i) {
    const std::string response =
        service.submit(i == 3 ? "{\"graph\":\"@nope\"}"
                              : atr_request(0.3 + 0.2 * i, 20))
            .get();
    const double request = histogram("serve.request_seconds").sum;
    const double queue = histogram("serve.queue_seconds").sum;
    const double service_s = histogram("serve.service_seconds").sum;
    EXPECT_NEAR((queue - queue0) + (service_s - service0), request - request0,
                1e-9)
        << response;
    request0 = request;
    queue0 = queue;
    service0 = service_s;
  }
  // Three results and one bad graph, all answered through the dispatcher.
  EXPECT_EQ(counter(service, "serve.responses"), 3u);
  for (const char* name : {"serve.request_seconds", "serve.queue_seconds",
                           "serve.service_seconds"})
    EXPECT_EQ(histogram(name).count, 4u) << name;
}

/// Inline workload text of `tasks` one-task sections: a large graph (about
/// 15 bytes per task of text) whose first WCET makes it distinct.
std::string chain_request(int id, int tasks, int runs) {
  std::string text = "app chain" + std::to_string(id) + "\\n";
  for (int t = 0; t < tasks; ++t)
    text += "task t" + std::to_string(t) + " " +
            std::to_string(t == 0 ? 3 + id : 3) + " 2\\n";
  return "{\"graph\":{\"text\":\"" + text + "\"},\"runs\":" +
         std::to_string(runs) + "}";
}

TEST(ServeService, EvictedGraphAnswersIdenticallyAndReinternsOnce) {
  // Distinct large graphs push the store past its byte budget: the first
  // one is evicted, and sending it again re-interns it once and answers
  // byte for byte what it answered before.
  SimService service(ServeSettings{});
  const std::string first = service.submit(chain_request(0, 10000, 5)).get();
  ASSERT_EQ(json_parse(first).at("type").str, "result") << first;
  for (int id = 1; counter(service, "serve.graph_store.evictions") == 0;
       ++id) {
    ASSERT_LT(id, 64) << "the store never evicted";
    const std::string r = service.submit(chain_request(id, 10000, 1)).get();
    ASSERT_EQ(json_parse(r).at("type").str, "result");
  }
  double resident = 0.0;
  for (const auto& g : service.registry().snapshot().gauges)
    if (g.name == "serve.graph_store.bytes") resident = g.value;
  EXPECT_GT(resident, 0.0);
  EXPECT_LE(resident, static_cast<double>(GraphStore::kMaxResidentBytes));

  const std::uint64_t interned = counter(service, "serve.graph_interned");
  const std::string again = service.submit(chain_request(0, 10000, 5)).get();
  EXPECT_EQ(experiment_of(again), experiment_of(first));
  EXPECT_EQ(counter(service, "serve.graph_interned"), interned + 1);
  (void)service.submit(chain_request(0, 10000, 5)).get();
  EXPECT_EQ(counter(service, "serve.graph_interned"), interned + 1);
}

TEST(ServeService, DeadlineRequestPointsCarryOneDeadlineKey) {
  // A deadline request sweeps x = deadline_ms, so the point's x key is
  // the deadline key: it must appear once, not twice.
  SimService service(ServeSettings{});
  const std::string response =
      service.submit("{\"graph\":\"@atr\",\"runs\":5,\"deadline_ms\":1000}")
          .get();
  const JsonValue v = json_parse(response);
  ASSERT_EQ(v.at("type").str, "result") << response;
  const JsonValue& points = v.at("experiment").at("points");
  ASSERT_EQ(points.array.size(), 1u);
  EXPECT_DOUBLE_EQ(points.array[0].at("deadline_ms").number, 1000.0);
  std::size_t keys = 0;
  for (std::size_t at = response.find("\"deadline_ms\":");
       at != std::string::npos;
       at = response.find("\"deadline_ms\":", at + 1))
    ++keys;
  EXPECT_EQ(keys, points.array.size()) << response;
}

// -------------------------------------------------------- graph store

/// A chain of `tasks` tasks, distinct per `id`, with no hierarchy (the
/// store interns and hashes the flat graph only).
Application chain_app(int id, int tasks) {
  AndOrGraph g;
  NodeId prev;
  for (int t = 0; t < tasks; ++t) {
    const NodeId n = g.add_task("t" + std::to_string(t),
                                SimTime::from_ms(t == 0 ? 3 + id : 3),
                                SimTime::from_ms(2));
    if (prev.valid()) g.add_edge(prev, n);
    prev = n;
  }
  return Application{"chain" + std::to_string(id), std::move(g), {}};
}

TEST(GraphStore, EvictsLeastRecentlyUsedPastTheBudget) {
  GraphStore store;
  const auto held = store.intern(chain_app(1, 20000));  // an in-flight group
  const auto hot = store.intern(chain_app(0, 20000));
  for (int id = 2; store.evictions() == 0; ++id) {
    ASSERT_LT(id, 200) << "the store never evicted";
    (void)store.intern(chain_app(id, 20000));
    (void)store.intern(chain_app(0, 20000));  // keeps the hot graph recent
  }
  EXPECT_LE(store.resident_bytes(), GraphStore::kMaxResidentBytes);
  // The recently used graph still hits; the least recently used one was
  // the first evicted, yet its holder still reads the whole graph.
  const std::uint64_t misses = store.misses();
  EXPECT_EQ(store.intern(chain_app(0, 20000)), hot);
  EXPECT_EQ(store.misses(), misses);
  EXPECT_EQ(held->app.graph.size(), 20000u);
  EXPECT_EQ(held->app.name, "chain1");
  // Interning the evicted graph again makes one new entry, then hits it.
  const auto back = store.intern(chain_app(1, 20000));
  EXPECT_NE(back, held);
  EXPECT_EQ(store.misses(), misses + 1);
  EXPECT_EQ(store.intern(chain_app(1, 20000)), back);
  EXPECT_EQ(store.misses(), misses + 1);
}

TEST(GraphStore, EntryKeepsOneAnalysisPerOptions) {
  GraphStore store;
  const auto entry = store.intern(apps::build_atr());
  CanonicalOptions two;
  two.cpus = 2;
  CanonicalOptions four = two;
  four.cpus = 4;
  bool hit = true;
  const CanonicalAnalysis a2 = store.analysis(entry, two, hit);
  EXPECT_FALSE(hit);
  (void)store.analysis(entry, four, hit);
  EXPECT_FALSE(hit);
  const CanonicalAnalysis again = store.analysis(entry, two, hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(again.worst_makespan(), a2.worst_makespan());
  EXPECT_EQ(&again.application(), &entry->app);
  EXPECT_EQ(again.cpus(), 2);
}

// ------------------------------------------------------------- server

TEST(ServeServer, EphemeralPortAndHello) {
  SimService service(ServeSettings{});
  SimServer server(service, ServerSettings{});
  EXPECT_NE(server.port(), 0);
  ServeClient client(server.port());
  ASSERT_TRUE(client.connected());
  const JsonValue hello =
      json_parse(client.request("{\"id\":\"x\",\"cmd\":\"hello\"}"));
  EXPECT_EQ(hello.at("type").str, "hello");
  EXPECT_EQ(hello.at("git_rev").str, build_git_rev());
}

TEST(ServeServer, NdjsonResultMatchesCliBytes) {
  SimService service(ServeSettings{});
  SimServer server(service, ServerSettings{});
  ServeClient client(server.port());
  const std::string response = client.request(atr_request());
  const std::string expected = expected_cli_document(0.5, kRuns);
  EXPECT_NE(response.find("\"experiment\":" + expected), std::string::npos);
}

TEST(ServeServer, HttpMetricsAndSimulate) {
  SimService service(ServeSettings{});
  SimServer server(service, ServerSettings{});
  // Metrics exposition over HTTP, with the provenance header.
  const std::string metrics = http_request(server.port(), "/metrics");
  EXPECT_EQ(metrics.rfind("# " + build_version_string(), 0), 0u);
  // One simulate via POST.
  const std::string body =
      http_request(server.port(), "/simulate", atr_request() + "\n");
  const JsonValue v = json_parse(body);
  EXPECT_EQ(v.at("type").str, "result");
  // Unknown path 404s without killing the server: metrics still answer.
  http_request(server.port(), "/nope");
  EXPECT_NE(http_request(server.port(), "/metrics").find("serve_requests"),
            std::string::npos);
}

TEST(ServeServer, RequestTimeoutProducesStructuredError) {
  SimService service(ServeSettings{});
  ServerSettings net;
  net.request_timeout_ms = 50;
  SimServer server(service, net);
  service.pause_dispatch();  // guarantee the waits expire
  // Four connections time out at once: their threads count the timeouts
  // in serve.timeouts concurrently, and no count may be lost.
  constexpr int kClients = 4;
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ServeClient client(server.port());
      responses[static_cast<std::size_t>(c)] = client.request(atr_request());
    });
  }
  for (std::thread& t : clients) t.join();
  for (const std::string& response : responses) {
    const JsonValue v = json_parse(response);
    EXPECT_EQ(v.at("type").str, "error");
    EXPECT_EQ(v.at("code").str, "timeout");
  }
  EXPECT_EQ(counter(service, "serve.timeouts"),
            static_cast<std::uint64_t>(kClients));
  service.resume_dispatch();
}

TEST(ServeServer, OversizedRequestLineIsRejected) {
  ServeSettings settings;
  settings.limits.max_request_bytes = 256;
  SimService service(settings);
  SimServer server(service, ServerSettings{});
  ServeClient client(server.port());
  const std::string big(1024, 'x');
  const JsonValue v = json_parse(client.request(big));
  EXPECT_EQ(v.at("type").str, "error");
  EXPECT_EQ(v.at("code").str, "bad_request");
}

TEST(ServeServer, ConcurrentClientsAllComplete) {
  SimService service(ServeSettings{});
  SimServer server(service, ServerSettings{});
  constexpr int kClients = 4;
  constexpr int kPerClient = 3;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ServeClient client(server.port());
      for (int i = 0; i < kPerClient; ++i) {
        // Mix of loads so batches hold both fresh and coalescable work.
        const std::string response =
            client.request(atr_request(0.4 + 0.1 * (c % 3), 5));
        if (json_parse(response).at("type").str == "result") ++ok;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients * kPerClient);
  EXPECT_EQ(counter(service, "serve.requests"),
            static_cast<std::uint64_t>(kClients * kPerClient));
  server.stop();
  // stop() drained and is idempotent.
  server.stop();
}

TEST(ServeProtocol, RendersProgressLines) {
  const std::string with_id =
      render_progress("\"s1\"", 3, 8, "simulate", 12.5, 1000, 2000);
  EXPECT_EQ(with_id.find('\n'), std::string::npos);
  const JsonValue v = json_parse(with_id);
  EXPECT_EQ(v.at("id").str, "s1");
  EXPECT_EQ(v.at("event").str, "progress");
  EXPECT_DOUBLE_EQ(v.at("done").number, 3.0);
  EXPECT_DOUBLE_EQ(v.at("total").number, 8.0);
  EXPECT_EQ(v.at("phase").str, "simulate");
  EXPECT_DOUBLE_EQ(v.at("elapsed_ms").number, 12.5);
  EXPECT_DOUBLE_EQ(v.at("cycles").number, 1000.0);
  EXPECT_DOUBLE_EQ(v.at("instructions").number, 2000.0);
  // No id field when the request carried none.
  const JsonValue anon = json_parse(render_progress("", 0, 0, "idle", 0, 0, 0));
  EXPECT_EQ(anon.find("id"), nullptr);
  EXPECT_EQ(anon.at("event").str, "progress");
}

TEST(ServeService, HealthzReportsQueueDepthWithoutDispatcher) {
  SimService service(ServeSettings{});
  const JsonValue idle = json_parse(service.healthz_json());
  EXPECT_EQ(idle.at("status").str, "ok");
  EXPECT_DOUBLE_EQ(idle.at("queue_depth").number, 0.0);
  EXPECT_GE(idle.at("uptime_s").number, 0.0);

  // With the dispatcher paused (standing in for a wedged one), liveness
  // still answers — healthz reads atomics, never the dispatcher lock —
  // and sees the queued work.
  service.pause_dispatch();
  auto f1 = service.submit(atr_request(0.4));
  auto f2 = service.submit(atr_request(0.5));
  const JsonValue busy = json_parse(service.healthz_json());
  EXPECT_EQ(busy.at("status").str, "ok");
  EXPECT_DOUBLE_EQ(busy.at("queue_depth").number, 2.0);
  service.resume_dispatch();
  f1.get();
  f2.get();
  // Dispatched: the depth gauge returns to zero.
  EXPECT_DOUBLE_EQ(json_parse(service.healthz_json()).at("queue_depth").number,
                   0.0);
}

TEST(ServeServer, HttpHealthzAnswersAlongsideMetrics) {
  SimService service(ServeSettings{});
  SimServer server(service, ServerSettings{});
  const JsonValue v = json_parse(http_request(server.port(), "/healthz"));
  EXPECT_EQ(v.at("status").str, "ok");
  EXPECT_DOUBLE_EQ(v.at("queue_depth").number, 0.0);
  EXPECT_GE(v.at("uptime_s").number, 0.0);
  // Both observability endpoints coexist on one listener. A fresh
  // service has no request counters yet, but /metrics always leads with
  // the provenance comment.
  EXPECT_EQ(http_request(server.port(), "/metrics").rfind("# paserta ", 0),
            0u);
}

TEST(ServeServer, StreamedRequestEmitsProgressThenUnchangedResult) {
  SimService service(ServeSettings{});
  ServerSettings net;
  net.stream_interval_ms = 10;  // fast ticks so the test sees progress
  SimServer server(service, net);
  service.pause_dispatch();  // hold the response so progress lines flow

  ServeClient client(server.port());
  const std::string first =
      client.request(atr_request(0.5, kRuns, ",\"id\":\"s1\",\"stream\":true"));
  // Every line before the final response is a progress event carrying the
  // request id — the paused dispatcher guarantees at least this first one.
  const JsonValue p = json_parse(first);
  EXPECT_EQ(p.at("event").str, "progress");
  EXPECT_EQ(p.at("id").str, "s1");
  EXPECT_GE(p.at("elapsed_ms").number, 0.0);
  EXPECT_GE(p.at("total").number, p.at("done").number);

  service.resume_dispatch();
  int progress_lines = 1;
  std::string final_line;
  for (;;) {
    const std::string line = client.read_line();
    ASSERT_FALSE(line.empty());
    const JsonValue v = json_parse(line);
    if (v.find("event") != nullptr) {
      // Strict ordering: progress only ever precedes the result.
      EXPECT_EQ(v.at("event").str, "progress");
      ++progress_lines;
      continue;
    }
    final_line = line;
    break;
  }
  EXPECT_GE(progress_lines, 1);
  // The final line is byte-for-byte the non-streamed result document.
  const JsonValue result = json_parse(final_line);
  EXPECT_EQ(result.at("type").str, "result");
  EXPECT_NE(final_line.find("\"experiment\":" + expected_cli_document(0.5, kRuns)),
            std::string::npos);
}

TEST(ServeServer, StreamIntervalRateLimitsProgress) {
  // A huge interval means the response is ready long before the first
  // progress tick: a streaming client sees exactly one line, identical in
  // payload to the non-streamed exchange. One-line clients that never set
  // the flag are untouched by construction (sub.stream = false path).
  SimService service(ServeSettings{});
  ServerSettings net;
  net.stream_interval_ms = 60'000;
  SimServer server(service, net);
  ServeClient client(server.port());
  const std::string only =
      client.request(atr_request(0.5, kRuns, ",\"stream\":true"));
  const JsonValue v = json_parse(only);
  EXPECT_EQ(v.at("type").str, "result");
  EXPECT_EQ(only.find("\"event\""), std::string::npos);
  EXPECT_NE(only.find("\"experiment\":" + expected_cli_document(0.5, kRuns)),
            std::string::npos);
}

TEST(ServeServer, StreamedRequestStillHonoursTimeout) {
  SimService service(ServeSettings{});
  ServerSettings net;
  net.request_timeout_ms = 80;
  net.stream_interval_ms = 25;
  SimServer server(service, net);
  service.pause_dispatch();  // guarantee the overall wait expires
  ServeClient client(server.port());
  const std::string first =
      client.request(atr_request(0.5, kRuns, ",\"stream\":true"));
  // Progress lines may precede the timeout; the last line is the same
  // structured error the non-streamed path produces.
  std::string line = first;
  for (;;) {
    const JsonValue v = json_parse(line);
    if (v.find("event") != nullptr) {
      line = client.read_line();
      ASSERT_FALSE(line.empty());
      continue;
    }
    EXPECT_EQ(v.at("type").str, "error");
    EXPECT_EQ(v.at("code").str, "timeout");
    break;
  }
  service.resume_dispatch();
}

TEST(ServeServer, StopDrainsInFlightRequests) {
  auto service = std::make_unique<SimService>(ServeSettings{});
  auto server = std::make_unique<SimServer>(*service, ServerSettings{});
  service->pause_dispatch();
  ServeClient client(server->port());

  // Fire a request whose response can only arrive once stop() drains the
  // paused queue — the graceful-shutdown contract.
  std::promise<std::string> got;
  std::thread requester([&] { got.set_value(client.request(atr_request())); });
  // Wait until the request is actually queued before stopping.
  while (service->queue_depth() == 0)
    std::this_thread::yield();
  server->stop();
  const std::string response = got.get_future().get();
  requester.join();
  EXPECT_EQ(json_parse(response).at("type").str, "result");
}

}  // namespace
}  // namespace paserta
