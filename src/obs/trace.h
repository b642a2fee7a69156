// Span storage for the Chrome/Perfetto trace export.
//
// A Tracer collects completed spans on one track per participant slot
// (Profiler::kSlots): each slot appends to its own event vector, so
// recording takes no lock and perturbs nothing shared. Spans come from
// phase charges: a Tracer is attached to a Profiler (obs/prof.h), and
// every charge a slot's own thread makes lands here as one span with the
// same start and duration it charged — category = phase. Only spans that
// are no region of one thread (serve's per-request span) are written
// with record() directly. The merged event list is read after the
// recording threads have joined (the pool's join is the happens-before
// edge) and exported as Chrome/Perfetto trace-event JSON by
// obs/chrome_trace.h, so a whole sweep opens in ui.perfetto.dev with one
// track per worker slot.
//
// Names are stored as const char*: callers pass string literals (or other
// pointers outliving the tracer, e.g. to_string(Scheme)) so the hot path
// never allocates per event beyond amortized vector growth. Structured
// context travels in the two integer args (point index, run index).
//
// Determinism contract: tracing is observational only. Recording reads
// the clock and appends to slot-local buffers; it never touches RNG
// streams, scheduling or accumulation order, so traced and untraced sweeps
// produce bit-identical results (test_obs pins this).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "obs/prof.h"  // Profiler::kSlots

namespace paserta {

/// One completed span on a slot's track.
struct TraceEvent {
  const char* name = "";   // literal or otherwise tracer-outliving
  const char* cat = "";    // category: the charged phase, or the name
  int slot = 0;            // worker-pool slot = Perfetto track (tid)
  std::int64_t ts_ns = 0;  // start, relative to the tracer's epoch
  std::int64_t dur_ns = 0; // span duration (>= 0)
  std::int64_t point = -1; // sweep-point index (-1 = n/a), exported as arg
  std::int64_t run = -1;   // run index (-1 = n/a), exported as arg
};

class Tracer {
 public:
  Tracer();

  /// Nanoseconds since the tracer was constructed (steady clock, shared
  /// across threads).
  std::int64_t now_ns() const;

  /// The tracer's epoch as absolute steady-clock nanoseconds — lets
  /// records timestamped on the raw steady clock (Profiler charges and
  /// samples) be rebased onto this tracer's timeline.
  std::int64_t epoch_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               epoch_.time_since_epoch())
        .count();
  }

  /// Appends a completed span to `slot`'s track; a null `cat` files the
  /// span under its own name. A slot already holding kMaxSlotEvents spans
  /// counts the span as dropped instead. Only the thread owning the slot
  /// may call this (one writer per track).
  void record(int slot, const char* name, std::int64_t ts_ns,
              std::int64_t dur_ns, std::int64_t point = -1,
              std::int64_t run = -1, const char* cat = nullptr);

  /// All events merged across tracks, ordered by (ts_ns, slot, dur_ns
  /// descending) so enclosing spans precede their children. Call only
  /// after the recording threads have joined.
  std::vector<TraceEvent> events() const;

  std::size_t event_count() const;

  /// Spans counted but not stored because their slot was full.
  std::uint64_t dropped_count() const;

  /// Spans one slot stores (14 MiB of TraceEvents), so a long-lived traced
  /// daemon's memory is bounded, like the profiler's kMaxSamples. A traced
  /// 20000-run ATR load sweep (19 points, 4 threads) records about 233k
  /// spans in all: it keeps every one even if a single slot records all.
  static constexpr std::size_t kMaxSlotEvents = std::size_t{1} << 18;

 private:
  struct alignas(64) Track {
    std::vector<TraceEvent> events;
    std::uint64_t dropped = 0;
  };
  std::chrono::steady_clock::time_point epoch_;
  std::array<Track, Profiler::kSlots> tracks_;
};

}  // namespace paserta
