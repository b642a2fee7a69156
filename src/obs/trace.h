// Span tracing for the experiment pipeline.
//
// A Tracer collects timed spans — sweep, offline analysis, pool chunk,
// per-scheme engine call — sharded per worker-pool slot exactly like the
// metrics (obs/metrics.h): each slot appends to its own event vector, so
// recording takes no lock and perturbs nothing shared. The merged event
// list is read after the parallel section has joined (the pool's join is
// the happens-before edge) and exported as Chrome/Perfetto trace-event
// JSON by obs/chrome_trace.h, so a whole sweep opens in ui.perfetto.dev
// with one track per worker slot.
//
// Names are stored as const char*: callers pass string literals (or other
// pointers outliving the tracer, e.g. to_string(Scheme)) so the hot path
// never allocates per event beyond amortized vector growth. Structured
// context travels in the two integer args (point index, run index).
//
// Determinism contract: tracing is observational only. TraceSpan reads the
// clock and appends to slot-local buffers; it never touches RNG streams,
// scheduling or accumulation order, so traced and untraced sweeps produce
// bit-identical results (test_obs pins this).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"  // kMaxShards

namespace paserta {

/// One completed span (or instant event, dur_ns < 0) on a slot's track.
struct TraceEvent {
  const char* name = "";   // literal or otherwise tracer-outliving
  int slot = 0;            // worker-pool slot = Perfetto track (tid)
  std::int64_t ts_ns = 0;  // start, relative to the tracer's epoch
  std::int64_t dur_ns = 0; // span duration; < 0 marks an instant event
  std::int64_t point = -1; // sweep-point index (-1 = n/a), exported as arg
  std::int64_t run = -1;   // run index (-1 = n/a), exported as arg
};

class Tracer {
 public:
  /// How deep the experiment harness instruments:
  ///   kChunks — sweep / offline / pool-chunk spans only (cheap, bounded
  ///             by chunk count);
  ///   kRuns   — additionally one span per batched engine call: per scheme
  ///             (NPM included) and lane group of up to 32 runs, named by
  ///             the scheme, with the point and the group's first run as
  ///             args (event count scales with runs / 32).
  enum class Detail { kChunks, kRuns };

  explicit Tracer(Detail detail = Detail::kRuns);

  Detail detail() const { return detail_; }

  /// Nanoseconds since the tracer was constructed (steady clock, shared
  /// across threads).
  std::int64_t now_ns() const;

  /// The tracer's epoch as absolute steady-clock nanoseconds — lets
  /// records timestamped on the raw steady clock (Profiler samples) be
  /// rebased onto this tracer's timeline (obs/chrome_trace.h).
  std::int64_t epoch_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               epoch_.time_since_epoch())
        .count();
  }

  /// Appends a completed span to `slot`'s shard. Only the thread owning
  /// the slot may call this (single-writer sharding).
  void record(int slot, const char* name, std::int64_t ts_ns,
              std::int64_t dur_ns, std::int64_t point = -1,
              std::int64_t run = -1);

  /// Appends an instant event (rendered as an arrow mark in Perfetto).
  void instant(int slot, const char* name, std::int64_t point = -1);

  /// All events merged across shards, ordered by (ts_ns, slot, dur_ns
  /// descending) so enclosing spans precede their children. Call only
  /// after the recording threads have joined.
  std::vector<TraceEvent> events() const;

  std::size_t event_count() const;

 private:
  struct alignas(64) Shard {
    std::vector<TraceEvent> events;
  };
  Detail detail_;
  std::chrono::steady_clock::time_point epoch_;
  std::array<Shard, kMaxShards> shards_;
};

/// RAII span: records [construction, destruction) on the tracer. A null
/// tracer makes the whole object a no-op, so call sites stay unconditional.
class TraceSpan {
 public:
  TraceSpan(Tracer* tracer, int slot, const char* name,
            std::int64_t point = -1, std::int64_t run = -1)
      : tracer_(tracer), slot_(slot), name_(name), point_(point), run_(run),
        t0_(tracer != nullptr ? tracer->now_ns() : 0) {}

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
    if (tracer_ != nullptr)
      tracer_->record(slot_, name_, t0_, tracer_->now_ns() - t0_, point_,
                      run_);
  }

 private:
  Tracer* tracer_;
  int slot_;
  const char* name_;
  std::int64_t point_;
  std::int64_t run_;
  std::int64_t t0_;
};

}  // namespace paserta
