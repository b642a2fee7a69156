// Cycle-level phase profiler (DESIGN.md §17).
//
// A Profiler owns a fixed set of named phases; a ProfScope is an RAII
// region that charges its wall time — and, when the host grants
// perf_event_open, its hardware-counter deltas (cycles, instructions,
// cache references/misses, branch misses) — to one (phase, slot) cell.
// Slots are the worker pool's participant slots (kSlots): slot 0 is any
// thread outside the pool (a loop's caller, the serve dispatcher), slots
// 1..kSlots-1 the pool workers' fixed participant slots (harness/pool.h).
// Cells stay per slot because the progress view and the trace tracks are
// per slot; each cell is written by one thread at a time and read with
// relaxed loads, so the profiler is TSan-clean against concurrent
// snapshot/export calls.
//
// One instrumentation point: instrumented code only charges phases. A
// Tracer attached at construction records every charge a slot's own
// thread makes (each ProfScope, each charge()) as one span on that slot's
// track — same start and duration, category = phase — and counter samples
// are taken only then. Progress is a view of the same cells: progress()
// counts the entries of the phase registered with expect().
//
// Determinism contract: the profiler is write-only with respect to the
// simulation. A null Profiler* turns every ProfScope into a no-op (one
// pointer test, no clock read), and an active profiler only reads clocks
// and counters — sweep output is bit-identical with profiling on or off
// at every thread count and batch size (pinned by the prof_identity
// suite).
//
// Hardware counters: one perf_event_open group per thread (cycles leader
// + followers), opened lazily on first use, read with PERF_FORMAT_GROUP |
// TOTAL_TIME_ENABLED | TOTAL_TIME_RUNNING so multiplexed counters are
// scaled by enabled/running per scope delta. When the syscall is denied
// (containers, CI, kernel.perf_event_paranoid) the first failed probe
// latches a process-wide fallback and every scope records wall time only
// — same phases, same counts, hardware columns zero. PASERTA_NO_PERF=1
// forces the fallback without touching the syscall.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace paserta {

class Tracer;  // obs/trace.h

/// One phase's merged totals (all slots summed in fixed slot order, so the
/// merge is deterministic for any thread count).
struct ProfPhaseTotals {
  std::string name;
  /// Top-level phases tile the profiled call end to end (no overlap);
  /// nested phases break a top-level phase down and overlap their parent.
  /// Attribution math (profile command) sums top-level phases only.
  bool top_level = false;
  std::uint64_t count = 0;  // scope entries
  std::uint64_t ns = 0;     // wall time inside the phase
  // Hardware columns; all zero on the fallback clock.
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_refs = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;
};

/// The progress view (Profiler::progress): entries of the expected phase
/// so far against the registered total, which grows per harness call —
/// over all slots, or over one.
struct ProfProgress {
  std::uint64_t done = 0;
  std::uint64_t total = 0;
};

/// One rate-limited per-slot counter sample: cumulative totals across all
/// phases of `slot` at steady-clock time `ts_ns`, for Perfetto counter
/// tracks (obs/chrome_trace.h).
struct ProfSample {
  std::int64_t ts_ns = 0;  // absolute steady_clock nanoseconds
  int slot = 0;
  std::uint64_t ns = 0;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
};

class Profiler {
 public:
  enum class Mode {
    kAuto,      ///< hardware counters when the host grants them
    kFallback,  ///< monotonic clock only (tests, forced comparisons)
  };

  /// `tracer` (optional; must outlive the profiler) receives one span per
  /// charge a slot's own thread makes.
  explicit Profiler(Mode mode = Mode::kAuto, Tracer* tracer = nullptr);

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Registers (or finds, by exact name) a phase and returns its id.
  /// Registration order is the snapshot/export order. At most kMaxPhases
  /// distinct names; thread-safe. Finding a registered phase takes no
  /// lock, so hot callers may look ids up per call. `name` is kept by
  /// pointer (it is the category of the phase's spans), so pass a string
  /// literal.
  int phase(const char* name, bool top_level = false);

  /// True when scopes read live hardware counters (the process-wide probe
  /// succeeded and the profiler was constructed in kAuto mode).
  bool hardware() const { return hardware_; }

  /// Charges [t0_ns, t1_ns) (absolute steady-clock ns) of `slot` to
  /// `phase` as one entry, span included, like a ProfScope: for callers
  /// that already read the clock (the pool). Slot's own thread only.
  void charge(int phase, int slot, std::int64_t t0_ns, std::int64_t t1_ns);

  /// Charges pre-measured wall time as `count` entries, without a span —
  /// for regions timed off the slot's thread (serve.parse on connection
  /// threads, serialized by the caller).
  void add_ns(int phase, int slot, std::uint64_t ns, std::uint64_t count = 1);

  /// Registers `n` more expected entries of `phase` (one phase per
  /// profiler) on `slot` for progress(). Slot's own thread only.
  void expect(int phase, std::uint64_t n, int slot = 0);

  /// The progress view over all slots. Relaxed loads only: callable from
  /// any thread while charges land.
  ProfProgress progress() const;
  /// The progress view of one slot: the entries charged on it against the
  /// entries expected on it. Exact for calls that run serially on the
  /// slot, where both land.
  ProfProgress progress(int slot) const;

  /// Merged per-phase totals, in registration order, slots summed in slot
  /// order. Safe to call while scopes are active on other threads (their
  /// in-flight deltas land in a later snapshot).
  std::vector<ProfPhaseTotals> snapshot() const;
  /// The per-phase totals of one slot alone, in registration order: a
  /// slot's top-level phases tile the wall time of what ran on it.
  std::vector<ProfPhaseTotals> snapshot(int slot) const;

  /// Exports the delta since the previous export as prof.<phase>.{ns,
  /// count[,cycles,instructions,cache_refs,cache_misses,branch_misses]}
  /// registry counters (hardware columns only when hardware() is true):
  /// repeated exports (periodic /metrics scrapes) never double-count.
  void export_delta_to(MetricsRegistry& reg);

  /// Rate-limited per-slot counter samples recorded so far (for the
  /// chrome-trace counter tracks; taken only with a tracer attached).
  /// Bounded at kMaxSamples.
  std::vector<ProfSample> samples() const;

  static constexpr int kMaxPhases = 32;
  /// Participant slots of the profiler's cells and of the tracer's tracks
  /// (obs/trace.h): slot 0 plus one per pool worker, each of which owns
  /// its slot for its lifetime (pool.cpp static_asserts that the bound
  /// covers WorkerPool::kMaxThreads).
  static constexpr int kSlots = 65;
  static constexpr int kMaxSamples = 4096;
  /// Minimum spacing between two counter samples of one slot.
  static constexpr std::int64_t kSampleIntervalNs = 10'000'000;  // 10 ms

 private:
  friend class ProfScope;

  enum Field {
    kCount = 0,
    kNs,
    kCycles,
    kInstructions,
    kCacheRefs,
    kCacheMisses,
    kBranchMisses,
    kFields,
  };

  /// One (phase, slot) accumulation cell: single writer (the slot's
  /// thread), relaxed readers, cache-line padded so neighbouring slots
  /// never share a line.
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v[kFields];
  };
  static_assert(kFields * sizeof(std::uint64_t) <= 64,
                "a Cell must fit one cache line");

  Cell& cell(int phase, int slot) {
    return cells_[static_cast<std::size_t>(phase) * kSlots + slot];
  }
  const Cell& cell(int phase, int slot) const {
    return cells_[static_cast<std::size_t>(phase) * kSlots + slot];
  }

  /// Per-phase totals of slots [first, last), summed in slot order.
  std::vector<ProfPhaseTotals> totals(int first, int last) const;

  /// Records the span of a charge of [t0, t1) and takes a counter sample
  /// when a tracer is attached. `name` null = the phase name.
  void trace(int phase, int slot, std::int64_t t0, std::int64_t t1,
             const char* name = nullptr, std::int64_t point = -1,
             std::int64_t run = -1);
  void maybe_sample(int slot, std::int64_t now);

  bool hardware_ = false;
  Tracer* const tracer_;
  std::vector<Cell> cells_;  // kMaxPhases * kSlots, preallocated
  mutable std::mutex m_;     // phase registration, samples, export
  // Phase table: entries below phase_count_ are written once, under m_,
  // before their id is handed out.
  std::array<const char*, kMaxPhases> names_{};
  std::array<bool, kMaxPhases> top_level_{};
  std::atomic<int> phase_count_{0};
  std::atomic<int> progress_phase_{-1};
  std::atomic<std::uint64_t> expected_[kSlots] = {};  // single writer each
  std::vector<ProfSample> samples_;
  std::atomic<std::int64_t> next_sample_ns_[kSlots] = {};
  std::vector<std::uint64_t> exported_;  // last-export totals, phase-major
};

/// RAII phase region. Null profiler = single pointer test, nothing else.
/// One live writer per (profiler, slot) at a time.
class ProfScope {
 public:
  ProfScope(Profiler* prof, int phase, int slot) : prof_(prof) {
    if (prof_ != nullptr) begin(phase, slot);
  }
  /// Same region, but its span is named `name` (a literal) and carries the
  /// point and run args; the category stays the phase. The per-engine-call
  /// scope names its span by scheme this way.
  ProfScope(Profiler* prof, int phase, int slot, const char* name,
            std::int64_t point, std::int64_t run)
      : prof_(prof), name_(name), point_(point), run_(run) {
    if (prof_ != nullptr) begin(phase, slot);
  }
  ~ProfScope() {
    if (prof_ != nullptr) end();
  }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  void begin(int phase, int slot);
  void end();

  Profiler* prof_;
  const char* name_ = nullptr;  // span name; null = the phase name
  std::int64_t point_ = -1;
  std::int64_t run_ = -1;
  int phase_ = 0;
  int slot_ = 0;
  std::int64_t t0_ = 0;
  bool hw_ = false;
  std::uint64_t hw0_[5] = {};  // raw start values (cycles..branch_misses)
  std::uint64_t te0_ = 0, tr0_ = 0;  // time enabled / running at start
};

}  // namespace paserta
