// Tests for the observability subsystem (src/obs/): sharded metrics,
// span tracing with Chrome export, the pool telemetry hooks and the
// profiler's progress view — and the determinism contract: enabling any
// of it must not change a single output bit of the experiment harness.
//
// The concurrency tests double as the TSan target (ctest -L pool_smoke
// under -DPASERTA_SANITIZE=thread): single-writer shard increments racing
// with live cross-shard reads must stay clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <cmath>
#include <limits>
#include <map>

#include "apps/synthetic.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/offline.h"
#include "core/policy.h"
#include "harness/experiment.h"
#include "harness/figures.h"
#include "harness/json.h"
#include "harness/pool.h"
#include "harness/report.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "sim/scenario.h"

namespace paserta {
namespace {

// ------------------------------------------------------------- counters

TEST(Counter, ShardsAggregateInSlotOrder) {
  Counter c;
  c.add(0, 5);
  c.add(3, 7);
  c.add(kMaxShards - 1, 1);
  EXPECT_EQ(c.value(), 13u);
  EXPECT_EQ(c.shard_value(0), 5u);
  EXPECT_EQ(c.shard_value(3), 7u);
  EXPECT_EQ(c.shard_value(1), 0u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentShardWritersWithLiveReader) {
  // One writer per slot plus a live cross-shard reader: the single-writer
  // relaxed store(load + n) pattern must be exact per shard and TSan-clean
  // against value() snapshots taken mid-loop.
  Counter c;
  std::atomic<std::uint64_t> live_max{0};
  WorkerPool pool(3);
  const int chunks = 400;
  pool.parallel_chunks(chunks, 4, [&](int chunk, int slot) {
    c.add(slot);
    if (chunk % 16 == 0) {
      // Live read while other shards are being written.
      std::uint64_t seen = c.value();
      std::uint64_t prev = live_max.load();
      while (seen > prev && !live_max.compare_exchange_weak(prev, seen)) {
      }
    }
  });
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(chunks));
  EXPECT_LE(live_max.load(), static_cast<std::uint64_t>(chunks));
  // Every shard total survives exactly (no lost updates within a shard).
  std::uint64_t sum = 0;
  for (int s = 0; s < kMaxShards; ++s) sum += c.shard_value(s);
  EXPECT_EQ(sum, static_cast<std::uint64_t>(chunks));
}

TEST(Gauge, AddAndSetPerShard) {
  Gauge g;
  g.add(0, 1.5);
  g.add(1, 2.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.set(1, 0.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

// ------------------------------------------------------------ histogram

TEST(Histogram, BucketEdgesAreLeSemantics) {
  const double bounds[] = {1.0, 10.0, 100.0};
  Histogram h(bounds);
  ASSERT_EQ(h.bucket_count(), 4u);  // 3 bounds + overflow

  h.record(0, 0.5);    // <= 1        -> bucket 0
  h.record(0, 1.0);    // == bound    -> bucket 0 (le, not lt)
  h.record(0, 1.0001); // just above  -> bucket 1
  h.record(0, 10.0);   // == bound    -> bucket 1
  h.record(0, 99.9);   //             -> bucket 2
  h.record(0, 100.0);  // == last     -> bucket 2
  h.record(0, 1e6);    // overflow    -> bucket 3

  EXPECT_EQ(h.bucket_value(0), 2u);
  EXPECT_EQ(h.bucket_value(1), 2u);
  EXPECT_EQ(h.bucket_value(2), 2u);
  EXPECT_EQ(h.bucket_value(3), 1u);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 1.0001 + 10.0 + 99.9 + 100.0 + 1e6, 1e-9);
}

TEST(Histogram, PercentileInterpolatesWithinBuckets) {
  const double bounds[] = {10.0, 20.0, 30.0};
  Histogram h(bounds);
  for (int i = 0; i < 2; ++i) h.record(0, 5.0);   // bucket 0: (0, 10]
  for (int i = 0; i < 4; ++i) h.record(0, 15.0);  // bucket 1: (10, 20]
  for (int i = 0; i < 2; ++i) h.record(0, 25.0);  // bucket 2: (20, 30]

  // Hand-computed: rank = q * 8, linear interpolation inside the bucket.
  // p50 -> rank 4, bucket 1 holds ranks (2, 6]: 10 + 10 * (4-2)/4 = 15.
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 15.0);
  // p25 -> rank 2, end of bucket 0: 0 + 10 * 2/2 = 10.
  EXPECT_DOUBLE_EQ(h.percentile(0.25), 10.0);
  // p0 -> rank 0, start of the first bucket (lower edge 0).
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  // p100 -> rank 8, end of the last finite bucket.
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 30.0);
}

TEST(Histogram, PercentileSkipsEmptyBucketsToUpperEdge) {
  const double bounds[] = {10.0, 20.0};
  Histogram h(bounds);
  for (int i = 0; i < 4; ++i) h.record(0, 12.0);  // all in bucket 1
  // p50 -> rank 2 inside bucket 1: 10 + 10 * 2/4 = 15.
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 15.0);
  // p0 -> rank 0 matches the empty first bucket: its upper edge.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 10.0);
}

TEST(Histogram, PercentileClampsOverflowToLastBound) {
  const double bounds[] = {10.0};
  Histogram h(bounds);
  for (int i = 0; i < 3; ++i) h.record(0, 1e6);  // all overflow
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 10.0);
}

TEST(Histogram, PercentileEdgeCasesAndValidation) {
  const double bounds[] = {10.0};
  Histogram h(bounds);
  EXPECT_TRUE(std::isnan(h.percentile(0.5)));  // no samples
  h.record(0, 5.0);
  EXPECT_THROW(h.percentile(-0.1), Error);
  EXPECT_THROW(h.percentile(1.5), Error);
}

TEST(Histogram, RejectsNonAscendingBounds) {
  const double bad[] = {1.0, 1.0};
  EXPECT_THROW(Histogram h(bad), Error);
  const double worse[] = {2.0, 1.0};
  EXPECT_THROW(Histogram h(worse), Error);
}

TEST(Histogram, ShardedRecordingAggregates) {
  const double bounds[] = {10.0};
  Histogram h(bounds);
  WorkerPool pool(3);
  pool.parallel_chunks(200, 4, [&](int chunk, int slot) {
    h.record(slot, chunk < 150 ? 1.0 : 100.0);
  });
  EXPECT_EQ(h.bucket_value(0), 150u);
  EXPECT_EQ(h.bucket_value(1), 50u);
  EXPECT_EQ(h.count(), 200u);
}

// ------------------------------------------------------------- registry

TEST(MetricsRegistry, RegisterOrGetReturnsStableRefs) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(0, 3);
  EXPECT_EQ(reg.counter("x").value(), 3u);

  const double bounds[] = {1.0, 2.0};
  Histogram& h1 = reg.histogram("h", bounds);
  Histogram& h2 = reg.histogram("h", bounds);
  EXPECT_EQ(&h1, &h2);
  const double other[] = {5.0};
  EXPECT_THROW(reg.histogram("h", other), Error);

  reg.reset();  // zeroes values, keeps registrations (and handles) alive
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(&reg.counter("x"), &a);
}

TEST(MetricsRegistry, SnapshotIsSortedAndTrimmed) {
  MetricsRegistry reg;
  reg.counter("zeta").add(2, 9);
  reg.counter("alpha").add(0, 1);
  reg.gauge("g").set(0, 2.5);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[1].name, "zeta");
  // Shards trimmed at the last non-zero cell.
  EXPECT_EQ(snap.counters[0].shards.size(), 1u);
  ASSERT_EQ(snap.counters[1].shards.size(), 3u);
  EXPECT_EQ(snap.counters[1].shards[2], 9u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 2.5);
}

TEST(MetricsRegistry, JsonRoundTripsThroughParser) {
  MetricsRegistry reg;
  reg.counter("engine.GSS.tasks").add(1, 42);
  const double bounds[] = {0.5, 1.5};
  Histogram& h = reg.histogram("lat", bounds);
  h.record(0, 0.25);
  h.record(0, 7.0);

  const JsonValue doc = json_parse(metrics_to_json(reg.snapshot()));
  ASSERT_TRUE(doc.is_object());
  const JsonValue& counters = doc.at("counters");
  ASSERT_TRUE(counters.is_array());
  ASSERT_EQ(counters.array.size(), 1u);
  EXPECT_EQ(counters.array[0].at("name").str, "engine.GSS.tasks");
  EXPECT_DOUBLE_EQ(counters.array[0].at("value").number, 42.0);

  const JsonValue& hists = doc.at("histograms");
  ASSERT_EQ(hists.array.size(), 1u);
  const JsonValue& buckets = hists.array[0].at("buckets");
  ASSERT_EQ(buckets.array.size(), 3u);  // 2 bounds + overflow
  EXPECT_DOUBLE_EQ(buckets.array[0].at("le").number, 0.5);
  EXPECT_DOUBLE_EQ(buckets.array[0].at("count").number, 1.0);
  EXPECT_EQ(buckets.array[2].at("le").str, "inf");
  EXPECT_DOUBLE_EQ(buckets.array[2].at("count").number, 1.0);
  EXPECT_DOUBLE_EQ(hists.array[0].at("count").number, 2.0);
}

// --------------------------------------------------- prometheus exporter

/// Prometheus metric-name mangling: every char outside [a-zA-Z0-9_:]
/// becomes '_' (mirrors the exporter; dots in registry names map to
/// underscores).
std::string prom_name(std::string name) {
  for (char& c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return name;
}

/// Parses the text exposition into {sample-key -> value}. Keys keep their
/// label block verbatim, e.g. `lat_bucket{le="0.5"}`.
std::map<std::string, double> parse_prometheus(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto sp = line.rfind(' ');
    EXPECT_NE(sp, std::string::npos) << line;
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = std::stod(line.substr(sp + 1));
  }
  return out;
}

TEST(Prometheus, RoundTripsAgainstJsonSnapshot) {
  MetricsRegistry reg;
  reg.counter("engine.GSS.tasks").add(1, 42);
  reg.counter("pool.chunks_completed").add(0, 7);
  reg.gauge("sweep.points").set(0, 3.5);
  const double bounds[] = {0.5, 1.5};
  Histogram& h = reg.histogram("pool.chunk_seconds", bounds);
  h.record(0, 0.25);
  h.record(0, 1.0);
  h.record(0, 7.0);

  const MetricsSnapshot snap = reg.snapshot();
  const JsonValue doc = json_parse(metrics_to_json(snap));
  const std::string text = metrics_to_prometheus(snap);
  const std::map<std::string, double> prom = parse_prometheus(text);

  // TYPE declarations, with sanitized names.
  EXPECT_NE(text.find("# TYPE engine_GSS_tasks counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sweep_points gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pool_chunk_seconds histogram"),
            std::string::npos);

  // Every metric carries a HELP line that preserves the original dotted
  // registry name, which the sanitized name cannot be mapped back to.
  EXPECT_NE(
      text.find("# HELP engine_GSS_tasks paserta metric engine.GSS.tasks"),
      std::string::npos);
  EXPECT_NE(text.find("# HELP sweep_points paserta metric sweep.points"),
            std::string::npos);
  EXPECT_NE(
      text.find(
          "# HELP pool_chunk_seconds paserta metric pool.chunk_seconds"),
      std::string::npos);
  // HELP precedes TYPE for each family (the conventional ordering).
  EXPECT_LT(text.find("# HELP engine_GSS_tasks"),
            text.find("# TYPE engine_GSS_tasks"));

  // Every JSON counter and gauge value survives the text round trip.
  for (const JsonValue& c : doc.at("counters").array) {
    const auto it = prom.find(prom_name(c.at("name").str));
    ASSERT_NE(it, prom.end()) << c.at("name").str;
    EXPECT_DOUBLE_EQ(it->second, c.at("value").number);
  }
  for (const JsonValue& g : doc.at("gauges").array) {
    const auto it = prom.find(prom_name(g.at("name").str));
    ASSERT_NE(it, prom.end()) << g.at("name").str;
    EXPECT_DOUBLE_EQ(it->second, g.at("value").number);
  }

  // Histogram: prometheus buckets are cumulative over the JSON per-bucket
  // counts, the +Inf bucket equals _count, and _sum/_count match.
  for (const JsonValue& hj : doc.at("histograms").array) {
    const std::string base = prom_name(hj.at("name").str);
    double cumulative = 0.0;
    for (const JsonValue& b : hj.at("buckets").array) {
      cumulative += b.at("count").number;
      std::string le;
      if (b.at("le").type == JsonValue::Type::String) {
        le = "+Inf";  // JSON spells the overflow bucket "inf"
      } else {
        // Recover the exporter's exact le text from the sample keys rather
        // than re-formatting the parsed double.
        const std::string prefix = base + "_bucket{le=\"";
        for (const auto& kv : prom) {
          if (kv.first.rfind(prefix, 0) != 0) continue;
          const std::string label =
              kv.first.substr(prefix.size(),
                              kv.first.size() - prefix.size() - 2);
          if (label != "+Inf" && std::stod(label) == b.at("le").number)
            le = label;
        }
        ASSERT_FALSE(le.empty()) << "no bucket for le=" << b.at("le").number;
      }
      const auto it = prom.find(base + "_bucket{le=\"" + le + "\"}");
      ASSERT_NE(it, prom.end()) << le;
      EXPECT_DOUBLE_EQ(it->second, cumulative);
    }
    EXPECT_DOUBLE_EQ(prom.at(base + "_bucket{le=\"+Inf\"}"),
                     hj.at("count").number);
    EXPECT_DOUBLE_EQ(prom.at(base + "_sum"), hj.at("sum").number);
    EXPECT_DOUBLE_EQ(prom.at(base + "_count"), hj.at("count").number);
  }
}

TEST(Prometheus, NonFiniteValuesUseTextFormatSpelling) {
  // JSON renders non-finite numbers as null; the Prometheus text format
  // spells them NaN / +Inf / -Inf, which the exporter must emit for
  // gauges and histogram _sum (a "null" sample value breaks scrapers).
  MetricsRegistry reg;
  reg.gauge("odd.nan").set(0, std::nan(""));
  reg.gauge("odd.inf").set(0, std::numeric_limits<double>::infinity());
  const std::string text = metrics_to_prometheus(reg.snapshot());
  EXPECT_NE(text.find("odd_nan NaN"), std::string::npos);
  EXPECT_NE(text.find("odd_inf +Inf"), std::string::npos);
  EXPECT_EQ(text.find("null"), std::string::npos);
}

// -------------------------------------------------------------- tracing

TEST(Tracer, SpansMergeSortedAcrossSlots) {
  Tracer tracer;
  tracer.record(1, "late", 200, 10);
  tracer.record(0, "outer", 100, 500, /*point=*/2);
  tracer.record(0, "inner", 150, 50, 2, 7);

  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 3u);
  ASSERT_EQ(tracer.event_count(), 3u);
  EXPECT_STREQ(events[0].name, "outer");   // earliest ts first
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_STREQ(events[2].name, "late");
  EXPECT_EQ(events[0].point, 2);
  EXPECT_EQ(events[1].run, 7);
}

TEST(Tracer, FullSlotCountsSpansInsteadOfStoringThem) {
  // One slot records past the cap: it keeps exactly the first
  // kMaxSlotEvents spans and counts the rest, and the other slots keep
  // recording. The trace file reports the count.
  Tracer tracer;
  tracer.record(0, "before", 0, 1);
  constexpr std::size_t kExtra = 5;
  for (std::size_t i = 0; i < Tracer::kMaxSlotEvents + kExtra; ++i)
    tracer.record(2, "flood", static_cast<std::int64_t>(i), 1);
  tracer.record(3, "after", 1, 1);

  EXPECT_EQ(tracer.event_count(), Tracer::kMaxSlotEvents + 2);
  EXPECT_EQ(tracer.dropped_count(), kExtra);
  std::map<int, std::size_t> per_slot;
  std::int64_t last_flood_ts = -1;
  for (const TraceEvent& ev : tracer.events()) {
    ++per_slot[ev.slot];
    if (ev.slot == 2) last_flood_ts = std::max(last_flood_ts, ev.ts_ns);
  }
  EXPECT_EQ(per_slot[0], 1u);
  EXPECT_EQ(per_slot[2], Tracer::kMaxSlotEvents);
  EXPECT_EQ(per_slot[3], 1u);
  EXPECT_EQ(last_flood_ts,
            static_cast<std::int64_t>(Tracer::kMaxSlotEvents) - 1);
  EXPECT_NE(chrome_trace_to_json(tracer).find(
                "\"otherData\":{\"dropped_events\":5}"),
            std::string::npos);
}

TEST(Tracer, NullTracerSpanIsNoOp) {
  // Without a tracer a scope charges its cell and nothing else: no span,
  // no counter sample.
  Profiler prof(Profiler::Mode::kFallback);
  const int p = prof.phase("region");
  for (int i = 0; i < 3; ++i) ProfScope scope(&prof, p, 0);
  prof.charge(p, 1, 100, 250);
  EXPECT_EQ(prof.snapshot()[0].count, 4u);
  EXPECT_TRUE(prof.samples().empty());
}

TEST(Tracer, RaiiSpanMeasuresNonNegativeDuration) {
  // A ProfScope on a profiler with a tracer attached records one span
  // per charge, on the charging slot's track, with exactly the charged
  // duration: category = phase, name = the phase or the scope's own name.
  Tracer tracer;
  Profiler prof(Profiler::Mode::kFallback, &tracer);
  const int sim = prof.phase("harness.simulate");
  const int parse = prof.phase("serve.parse", /*top_level=*/true);
  {
    ProfScope scope(&prof, sim, 3, "GSS", /*point=*/1, /*run=*/2);
  }
  {
    ProfScope scope(&prof, sim, 0);
  }
  prof.add_ns(parse, 0, 500);  // timed off-slot: charged, never spanned

  std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  if (events[0].slot != 3) std::swap(events[0], events[1]);
  EXPECT_STREQ(events[0].name, "GSS");
  EXPECT_STREQ(events[0].cat, "harness.simulate");
  EXPECT_EQ(events[0].slot, 3);
  EXPECT_EQ(events[0].point, 1);
  EXPECT_EQ(events[0].run, 2);
  EXPECT_STREQ(events[1].name, "harness.simulate");
  EXPECT_STREQ(events[1].cat, "harness.simulate");
  EXPECT_EQ(events[1].slot, 0);
  EXPECT_EQ(events[1].point, -1);
  EXPECT_EQ(events[1].run, -1);
  std::uint64_t span_ns = 0;
  for (const TraceEvent& ev : events) {
    EXPECT_GE(ev.dur_ns, 0);
    EXPECT_GE(ev.ts_ns, 0);  // on the tracer's timeline
    span_ns += static_cast<std::uint64_t>(ev.dur_ns);
  }
  EXPECT_EQ(prof.snapshot()[sim].ns, span_ns);
  EXPECT_EQ(prof.snapshot()[parse].count, 1u);
  EXPECT_FALSE(prof.samples().empty());  // sampled while traced
}

TEST(ChromeTrace, ExportParsesAndCarriesEvents) {
  Tracer tracer;
  tracer.record(0, "sweep", 1000, 2'000'000, 0);
  tracer.record(1, "chunk", 1500, 500'000, 0, 16);

  const JsonValue doc = json_parse(chrome_trace_to_json(tracer));
  ASSERT_TRUE(doc.is_object());
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  // 2 thread_name metadata (slots 0 and 1) + 2 events.
  ASSERT_EQ(events.array.size(), 4u);

  int meta = 0, complete = 0;
  for (const JsonValue& ev : events.array) {
    const std::string ph = ev.at("ph").str;
    if (ph == "M") {
      ++meta;
      EXPECT_EQ(ev.at("name").str, "thread_name");
    } else if (ph == "X") {
      ++complete;
      EXPECT_TRUE(ev.find("dur") != nullptr);
    }
    EXPECT_DOUBLE_EQ(ev.at("pid").number, 1.0);
  }
  EXPECT_EQ(meta, 2);
  EXPECT_EQ(complete, 2);

  // ts/dur are microseconds: the 2 ms span must export as dur 2000.
  for (const JsonValue& ev : events.array) {
    if (ev.at("ph").str == "X" && ev.at("name").str == "sweep") {
      EXPECT_DOUBLE_EQ(ev.at("dur").number, 2000.0);
      EXPECT_DOUBLE_EQ(ev.at("ts").number, 1.0);
      EXPECT_DOUBLE_EQ(ev.at("args").at("point").number, 0.0);
    }
    if (ev.at("ph").str == "X" && ev.at("name").str == "chunk")
      EXPECT_DOUBLE_EQ(ev.at("args").at("run").number, 16.0);
  }
}

// ------------------------------------------------------- pool telemetry

TEST(PoolTelemetry, CountsChunksBusyAndProgress) {
  MetricsRegistry reg;
  const double bounds[] = {1e-6, 1e-3, 1.0};
  PoolTelemetry tel;
  tel.chunks = &reg.counter("pool.chunks_completed");
  tel.busy_ns = &reg.counter("pool.busy_ns");
  tel.idle_ns = &reg.counter("pool.idle_ns");
  tel.chunk_seconds = &reg.histogram("pool.chunk_seconds", bounds);
  Profiler prof(Profiler::Mode::kFallback);
  tel.prof = &prof;
  tel.ph_claim = prof.phase("pool.claim", /*top_level=*/true);
  tel.ph_busy = prof.phase("pool.busy", /*top_level=*/true);
  tel.ph_idle = prof.phase("pool.idle", /*top_level=*/true);
  prof.expect(tel.ph_busy, 64);

  WorkerPool pool(3);
  std::atomic<int> executed{0};
  pool.parallel_chunks(
      64, 4, [&](int, int) { executed.fetch_add(1); }, &tel);

  EXPECT_EQ(executed.load(), 64);
  EXPECT_EQ(tel.chunks->value(), 64u);
  EXPECT_EQ(tel.chunk_seconds->count(), 64u);
  EXPECT_GT(tel.busy_ns->value(), 0u);
  // Progress is the busy phase's entry count against the expected total.
  EXPECT_EQ(prof.progress().done, 64u);
  EXPECT_EQ(prof.progress().total, 64u);
}

TEST(PoolTelemetry, SerialChunksReportsOnSlotZero) {
  MetricsRegistry reg;
  PoolTelemetry tel;
  tel.chunks = &reg.counter("chunks");
  tel.busy_ns = &reg.counter("busy");
  WorkerPool::serial_chunks(10, [&](int, int slot) { EXPECT_EQ(slot, 0); },
                            &tel);
  EXPECT_EQ(tel.chunks->value(), 10u);
  EXPECT_EQ(tel.chunks->shard_value(0), 10u);  // everything on the caller
}

TEST(PoolTelemetry, NullTelemetryUnchangedBehaviour) {
  WorkerPool pool(2);
  std::atomic<int> executed{0};
  pool.parallel_chunks(16, 3, [&](int, int) { executed.fetch_add(1); },
                       nullptr);
  EXPECT_EQ(executed.load(), 16);
}

// ----------------------------------------- harness: determinism contract

ExperimentConfig harness_config(int runs, int threads) {
  ExperimentConfig cfg;
  cfg.cpus = 2;
  cfg.runs = runs;
  cfg.threads = threads;
  cfg.seed = 20260806;
  return cfg;
}

/// Full-fidelity serialization of a sweep: the CSV the CLI emits plus the
/// JSON export (mean/ci/min/max/n per stat). Byte equality here is the
/// bit-identity the determinism contract promises.
std::string serialize_sweep(const std::vector<SweepPoint>& points) {
  std::ostringstream os;
  sweep_table(points, "load").write_csv(os);
  JsonExportOptions jopt;
  jopt.experiment_id = "obs-identity";
  jopt.x_name = "load";
  write_sweep_json(os, points, jopt);
  return os.str();
}

TEST(ObsDeterminism, SweepBitIdenticalWithObservabilityOnOrOff) {
  const Application app = apps::build_synthetic();
  const std::vector<double> loads = {0.3, 0.6, 1.0};

  const std::string baseline =
      serialize_sweep(sweep_load(app, harness_config(30, 1), loads));

  for (int threads : {1, 4}) {
    // Everything on: metrics into a scoped registry, a profiler with a
    // tracer attached (spans and the progress view come from it).
    MetricsRegistry reg;
    Tracer tracer;
    Profiler prof(Profiler::Mode::kAuto, &tracer);
    ExperimentConfig cfg = harness_config(30, threads);
    cfg.collect_metrics = true;
    cfg.registry = &reg;
    cfg.prof = &prof;

    const std::vector<SweepPoint> points = sweep_load(app, cfg, loads);
    EXPECT_EQ(serialize_sweep(points), baseline)
        << "observability changed sweep output at threads=" << threads;

    // The observability itself did fire.
    EXPECT_GT(reg.counter("pool.chunks_completed").value(), 0u);
    EXPECT_GT(tracer.event_count(), 0u);
    EXPECT_GT(prof.progress().done, 0u);
    EXPECT_EQ(prof.progress().done, prof.progress().total);
    ASSERT_EQ(points.size(), loads.size());
    for (const SweepPoint& pt : points) EXPECT_TRUE(pt.metrics.enabled());
  }

  // Plain parallel without observability must also match.
  EXPECT_EQ(
      serialize_sweep(sweep_load(app, harness_config(30, 4), loads)),
      baseline);
}

TEST(ObsDeterminism, RunPointIdenticalWithMetricsOn) {
  const Application app = apps::build_synthetic();
  const SimTime d = SimTime::from_ms(120);

  const SweepPoint plain = run_point(app, harness_config(25, 1), d, 0.0);
  ExperimentConfig cfg = harness_config(25, 3);
  MetricsRegistry reg;
  cfg.collect_metrics = true;
  cfg.registry = &reg;
  const SweepPoint observed = run_point(app, cfg, d, 0.0);

  EXPECT_EQ(serialize_sweep({observed}), serialize_sweep({plain}));
  EXPECT_FALSE(plain.metrics.enabled());
  EXPECT_TRUE(observed.metrics.enabled());
}

// --------------------------------------------- harness: metric semantics

TEST(ObsMetrics, PointMetricsMatchSchemeStats) {
  const Application app = apps::build_synthetic();
  ExperimentConfig cfg = harness_config(40, 2);
  MetricsRegistry reg;
  cfg.collect_metrics = true;
  cfg.registry = &reg;
  const SweepPoint pt = run_point(app, cfg, SimTime::from_ms(120), 0.0);

  ASSERT_EQ(pt.metrics.schemes.size(), cfg.schemes.size());
  const double runs = static_cast<double>(cfg.runs);
  for (std::size_t s = 0; s < cfg.schemes.size(); ++s) {
    const SimCounters& c = pt.metrics.schemes[s];
    // The counter total must equal the per-run RunningStat sum.
    const double stat_sum = pt.stats[s].speed_changes.mean() * runs;
    EXPECT_NEAR(static_cast<double>(c.speed_changes), stat_sum,
                1e-6 * std::max(1.0, stat_sum))
        << to_string(cfg.schemes[s]);
    // Dispatch volume depends only on the scenarios (shared across
    // schemes), so every scheme — and the NPM baseline — agrees.
    EXPECT_EQ(c.dispatches, pt.metrics.npm.dispatches)
        << to_string(cfg.schemes[s]);
    EXPECT_EQ(c.tasks, pt.metrics.npm.tasks);
    EXPECT_EQ(c.or_fires, pt.metrics.npm.or_fires);
    EXPECT_GT(c.tasks, 0u);
    // Dynamic schemes make exactly one floor-vs-greedy decision per task;
    // static schemes (and NPM) make none.
    const Scheme scheme = cfg.schemes[s];
    if (scheme == Scheme::NPM || scheme == Scheme::SPM) {
      EXPECT_EQ(c.spec_picks + c.greedy_picks, 0u);
    } else {
      EXPECT_EQ(c.spec_picks + c.greedy_picks, c.tasks);
    }
    if (scheme == Scheme::GSS) EXPECT_EQ(c.spec_picks, 0u);
  }
  // NPM never changes speed and reclaims no slack.
  EXPECT_EQ(pt.metrics.npm.speed_changes, 0u);
  EXPECT_EQ(pt.metrics.npm.reclaimed_slack_ps, 0u);

  // The registry carries the flushed engine totals and the pool telemetry.
  EXPECT_EQ(reg.counter("engine.NPM.dispatches").value(),
            pt.metrics.npm.dispatches);
  const int chunks = reg.counter("pool.chunks_completed").value() > 0
                         ? static_cast<int>(
                               reg.counter("pool.chunks_completed").value())
                         : 0;
  EXPECT_GT(chunks, 0);
}

TEST(ObsMetrics, ChunkAccountingCoversAllChunks) {
  const Application app = apps::build_synthetic();
  ExperimentConfig cfg = harness_config(33, 2);
  cfg.chunk_runs = 8;  // 33 runs -> 5 chunks (ceil)
  MetricsRegistry reg;
  cfg.collect_metrics = true;
  cfg.registry = &reg;
  Profiler prof(Profiler::Mode::kFallback);
  cfg.prof = &prof;
  (void)run_point(app, cfg, SimTime::from_ms(120), 0.0);

  EXPECT_EQ(reg.counter("pool.chunks_completed").value(), 5u);
  EXPECT_EQ(prof.progress().total, 5u);
  EXPECT_EQ(prof.progress().done, 5u);
}

// ------------------------------------------------- energy attribution

TEST(EnergyAttribution, LedgerRebuildsRunEnergiesBitwise) {
  const Application app = apps::build_synthetic();
  const PowerModel pm(LevelTable::transmeta_tm5400());
  const Overheads ovh;
  OfflineOptions opt;
  opt.cpus = 2;
  opt.deadline = SimTime::from_ms(120);
  opt.overhead_budget = ovh.worst_case_budget(pm.table());
  const OfflineResult off = analyze_offline(app, opt);

  SimWorkspace ws;
  SimCounters merged;
  double manual_total = 0.0;
  for (Scheme scheme : {Scheme::NPM, Scheme::SPM, Scheme::GSS, Scheme::SS1,
                        Scheme::SS2, Scheme::AS}) {
    auto policy = make_policy(scheme);
    Rng rng(100 + static_cast<std::uint64_t>(static_cast<int>(scheme)));
    for (int run = 0; run < 8; ++run) {
      const RunScenario sc = draw_scenario(app.graph, rng);
      policy->reset(off, pm);
      SimCounters c;
      SimOptions o;
      o.record_trace = false;
      o.counters = &c;
      o.audit = true;  // engine-side integer time-conservation assert
      const SimResult r = simulate(app, off, pm, ovh, *policy, sc, ws, o);

      // The fold over the exported integer ledger reproduces the engine's
      // energies bit-for-bit — same fold, same integers, same order.
      ASSERT_EQ(c.levels, pm.table().size()) << to_string(scheme);
      const EnergySplit split = attribution_energy(c, pm, ovh);
      EXPECT_EQ(split.busy, r.busy_energy) << to_string(scheme);
      EXPECT_EQ(split.overhead, r.overhead_energy) << to_string(scheme);
      EXPECT_EQ(split.idle, r.idle_energy) << to_string(scheme);
      EXPECT_EQ(split.total(), r.total_energy()) << to_string(scheme);

      merged.add(c);
      manual_total += r.total_energy();
    }
  }
  // The ledger is additive: folding the merged counters agrees with the
  // per-run total up to summation-order rounding.
  const EnergySplit agg = attribution_energy(merged, pm, ovh);
  EXPECT_NEAR(agg.total(), manual_total, 1e-9 * std::max(1.0, manual_total));

  // Static schemes never touch the DVS hardware: no transitions recorded.
  SimCounters npm_only;
  auto npm = make_policy(Scheme::NPM);
  Rng rng(100);
  const RunScenario sc = draw_scenario(app.graph, rng);
  npm->reset(off, pm);
  SimOptions o;
  o.record_trace = false;
  o.counters = &npm_only;
  (void)simulate(app, off, pm, ovh, *npm, sc, ws, o);
  for (std::uint64_t t : npm_only.transitions) EXPECT_EQ(t, 0u);
  for (std::uint64_t t : npm_only.compute_ps) EXPECT_EQ(t, 0u);
}

TEST(EnergyAttribution, MergeAdoptsAndRejectsLedgerShapes) {
  SimCounters a;
  a.levels = 2;
  a.busy_ps = {10, 20};
  a.compute_ps = {1, 2};
  a.transitions = {0, 3, 4, 0};
  a.idle_ps = 5;

  // Merging into an empty cell adopts the ledger wholesale.
  SimCounters cell;
  cell.add(a);
  EXPECT_EQ(cell.levels, 2u);
  EXPECT_EQ(cell.busy_ps, a.busy_ps);
  cell.add(a);  // elementwise integer accumulation
  EXPECT_EQ(cell.busy_ps[1], 40u);
  EXPECT_EQ(cell.transitions[1], 6u);
  EXPECT_EQ(cell.idle_ps, 10u);

  // Merging a ledger-free cell is a scalar-only no-op on the ledger.
  cell.add(SimCounters{});
  EXPECT_EQ(cell.busy_ps[0], 20u);

  // Ledgers recorded against different power tables cannot be merged.
  SimCounters b;
  b.levels = 3;
  b.busy_ps = {1, 2, 3};
  b.compute_ps = {0, 0, 0};
  b.transitions.assign(9, 0);
  EXPECT_THROW(cell.add(b), Error);
}

TEST(EnergyAttribution, FoldRejectsShapeMismatch) {
  const PowerModel pm(LevelTable::transmeta_tm5400());
  SimCounters empty;  // levels == 0: no ledger recorded
  EXPECT_THROW(attribution_energy(empty, pm, Overheads{}), Error);
}

// --------------------------------------------------- harness audit mode

TEST(ObsAudit, AuditedSweepBitIdenticalToPlain) {
  const Application app = apps::build_synthetic();
  const std::vector<double> loads = {0.4, 0.8};
  const std::string baseline =
      serialize_sweep(sweep_load(app, harness_config(20, 1), loads));

  for (int threads : {1, 4}) {
    // Audit + metrics: runs are re-accounted through run-local cells and
    // merged after the checks — the outputs must not move a bit.
    MetricsRegistry reg;
    ExperimentConfig cfg = harness_config(20, threads);
    cfg.audit = true;
    cfg.collect_metrics = true;
    cfg.registry = &reg;
    EXPECT_EQ(serialize_sweep(sweep_load(app, cfg, loads)), baseline)
        << "audit+metrics changed sweep output at threads=" << threads;

    // Audit alone (no metrics collection).
    ExperimentConfig bare = harness_config(20, threads);
    bare.audit = true;
    EXPECT_EQ(serialize_sweep(sweep_load(app, bare, loads)), baseline)
        << "audit changed sweep output at threads=" << threads;
  }
}

TEST(ObsAudit, Fig4SweepAuditsCleanAtOneAndFourThreads) {
  // The acceptance pin: a full fig4 sweep under audit at 1 and 4 threads.
  // Every run of every scheme (and the NPM baseline) passes all three
  // audit checks — ledger time conservation, exact counter-rebuilt
  // energies, power-trace integral — or the harness throws and the test
  // fails. The attribution totals themselves must be thread-invariant.
  FigureDef fig = paper_figure("fig4a", /*runs=*/10);
  const Application app = figure_workload(fig);

  std::vector<SweepPoint> first;
  std::string first_bytes;
  for (int threads : {1, 4}) {
    MetricsRegistry reg;
    ExperimentConfig cfg = fig.config;
    cfg.threads = threads;
    cfg.audit = true;
    cfg.collect_metrics = true;
    cfg.registry = &reg;
    std::vector<SweepPoint> points = sweep_load(app, cfg, fig.xs);
    ASSERT_EQ(points.size(), fig.xs.size());

    for (const SweepPoint& pt : points) {
      ASSERT_TRUE(pt.metrics.enabled());
      ASSERT_EQ(pt.metrics.schemes.size(), cfg.schemes.size());
      for (const SimCounters& c : pt.metrics.schemes) {
        ASSERT_GT(c.levels, 0u);
        std::uint64_t busy = 0;
        for (std::uint64_t b : c.busy_ps) busy += b;
        EXPECT_GT(busy, 0u);
      }
      EXPECT_GT(pt.metrics.npm.levels, 0u);
    }

    // The flushed registry carries the per-level attribution counters.
    bool saw_busy = false, saw_idle = false;
    for (const auto& row : reg.snapshot().counters) {
      saw_busy = saw_busy || row.name.find(".busy_ps.L") != std::string::npos;
      saw_idle = saw_idle || row.name.find(".idle_ps") != std::string::npos;
    }
    EXPECT_TRUE(saw_busy);
    EXPECT_TRUE(saw_idle);

    const std::string bytes = serialize_sweep(points);
    if (first.empty()) {
      first = std::move(points);
      first_bytes = bytes;
      continue;
    }
    EXPECT_EQ(bytes, first_bytes);
    // Ledger totals are integer sums in fixed slot order: identical for
    // every thread count, field for field.
    for (std::size_t p = 0; p < points.size(); ++p) {
      for (std::size_t s = 0; s < points[p].metrics.schemes.size(); ++s) {
        const SimCounters& c1 = first[p].metrics.schemes[s];
        const SimCounters& c4 = points[p].metrics.schemes[s];
        EXPECT_EQ(c1.levels, c4.levels);
        EXPECT_EQ(c1.busy_ps, c4.busy_ps);
        EXPECT_EQ(c1.compute_ps, c4.compute_ps);
        EXPECT_EQ(c1.transitions, c4.transitions);
        EXPECT_EQ(c1.idle_ps, c4.idle_ps);
      }
    }
  }
}

}  // namespace
}  // namespace paserta
