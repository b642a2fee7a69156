#include "obs/prof.h"

#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/error.h"
#include "obs/trace.h"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace paserta {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Single-writer relaxed accumulate: a cell has one writer at a time, so
/// load + store needs no read-modify-write, and concurrent relaxed readers
/// (snapshot/export) are TSan-clean.
inline void cell_add(std::atomic<std::uint64_t>& v, std::uint64_t delta) {
  if (delta != 0)
    v.store(v.load(std::memory_order_relaxed) + delta,
            std::memory_order_relaxed);
}

#if defined(__linux__)

/// The hardware events a group carries, in fixed order. The leader
/// (cycles) must open for the group to exist; followers that the host
/// lacks (e.g. LLC events on some VMs) are skipped individually.
constexpr std::uint64_t kEventConfigs[5] = {
    PERF_COUNT_HW_CPU_CYCLES,       PERF_COUNT_HW_INSTRUCTIONS,
    PERF_COUNT_HW_CACHE_REFERENCES, PERF_COUNT_HW_CACHE_MISSES,
    PERF_COUNT_HW_BRANCH_MISSES,
};

long perf_event_open(perf_event_attr* attr, pid_t pid, int cpu, int group_fd,
                     unsigned long flags) {
  return ::syscall(__NR_perf_event_open, attr, pid, cpu, group_fd, flags);
}

/// One per-thread counter group: counters run continuously for the
/// thread's lifetime; scopes read start/end values and charge the delta.
/// Shared by every Profiler in the process — deltas make that safe.
struct PerfGroup {
  int leader = -1;
  int fds[5] = {-1, -1, -1, -1, -1};
  int idx[5] = {-1, -1, -1, -1, -1};  // event -> position in the group read
  int nvals = 0;
  bool tried = false;

  ~PerfGroup() {
    for (int fd : fds)
      if (fd >= 0) ::close(fd);
  }

  bool open() {
    tried = true;
    perf_event_attr attr{};
    attr.size = sizeof(attr);
    attr.type = PERF_TYPE_HARDWARE;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                       PERF_FORMAT_TOTAL_TIME_RUNNING;
    for (int e = 0; e < 5; ++e) {
      attr.config = kEventConfigs[e];
      const long fd = perf_event_open(&attr, /*pid=*/0, /*cpu=*/-1,
                                      /*group_fd=*/leader, /*flags=*/0);
      if (fd < 0) {
        if (e == 0) return false;  // no leader, no group
        continue;
      }
      fds[e] = static_cast<int>(fd);
      if (e == 0) leader = static_cast<int>(fd);
      idx[e] = nvals++;
    }
    return true;
  }

  /// Reads the group into `out` (event order, missing events zero) plus
  /// the leader's enabled/running times. False on a failed read.
  bool read(std::uint64_t out[5], std::uint64_t& te, std::uint64_t& tr) {
    // nr, time_enabled, time_running, then one value per open event.
    std::uint64_t buf[3 + 5] = {};
    const std::size_t want = (3 + static_cast<std::size_t>(nvals)) * 8;
    if (::read(leader, buf, want) != static_cast<ssize_t>(want)) return false;
    te = buf[1];
    tr = buf[2];
    for (int e = 0; e < 5; ++e)
      out[e] = idx[e] >= 0 ? buf[3 + idx[e]] : 0;
    return true;
  }
};

thread_local PerfGroup t_perf;

/// Process-wide availability latch: 0 unknown, 1 available, 2 unavailable.
/// Probed once — a denied perf_event_open (EACCES/EPERM/ENOSYS under
/// seccomp or perf_event_paranoid) latches the fallback for every thread.
std::atomic<int> g_perf_state{0};

bool perf_available() {
  int state = g_perf_state.load(std::memory_order_acquire);
  if (state == 0) {
    const char* off = std::getenv("PASERTA_NO_PERF");
    if (off != nullptr && off[0] != '\0' && off[0] != '0') {
      state = 2;
    } else {
      PerfGroup probe;
      state = probe.open() ? 1 : 2;
    }
    g_perf_state.store(state, std::memory_order_release);
  }
  return state == 1;
}

/// The calling thread's group, opened on first use. A thread whose own
/// open fails after the process probe passed (exotic, e.g. fd exhaustion)
/// just records wall time.
PerfGroup* thread_group() {
  if (!t_perf.tried) t_perf.open();
  return t_perf.leader >= 0 ? &t_perf : nullptr;
}

#else  // !__linux__

bool perf_available() { return false; }

#endif

}  // namespace

Profiler::Profiler(Mode mode, Tracer* tracer)
    : tracer_(tracer), cells_(static_cast<std::size_t>(kMaxPhases) * kSlots) {
  hardware_ = mode == Mode::kAuto && perf_available();
  for (auto& c : cells_)
    for (auto& v : c.v) v.store(0, std::memory_order_relaxed);
  for (auto& s : next_sample_ns_) s.store(0, std::memory_order_relaxed);
  for (auto& e : expected_) e.store(0, std::memory_order_relaxed);
  if (tracer_ != nullptr) samples_.reserve(64);
}

int Profiler::phase(const char* name, bool top_level) {
  // Entries below phase_count_ are immutable once published (release
  // store below), so a registered name is found without the lock.
  const int published = phase_count_.load(std::memory_order_acquire);
  for (int i = 0; i < published; ++i)
    if (names_[i] == name || std::strcmp(names_[i], name) == 0) return i;
  std::lock_guard<std::mutex> lock(m_);
  const int n = phase_count_.load(std::memory_order_relaxed);
  for (int i = published; i < n; ++i)
    if (std::strcmp(names_[i], name) == 0) return i;
  PASERTA_REQUIRE(n < kMaxPhases, "profiler phase table full (kMaxPhases = "
                                      << kMaxPhases << ")");
  names_[n] = name;
  top_level_[n] = top_level;
  phase_count_.store(n + 1, std::memory_order_release);
  return n;
}

void Profiler::charge(int phase, int slot, std::int64_t t0_ns,
                      std::int64_t t1_ns) {
  Cell& c = cell(phase, slot);
  cell_add(c.v[kCount], 1);
  cell_add(c.v[kNs], t1_ns > t0_ns ? static_cast<std::uint64_t>(t1_ns - t0_ns)
                                   : 0);
  trace(phase, slot, t0_ns, t1_ns);
}

void Profiler::add_ns(int phase, int slot, std::uint64_t ns,
                      std::uint64_t count) {
  Cell& c = cell(phase, slot);
  cell_add(c.v[kCount], count);
  cell_add(c.v[kNs], ns);
}

void Profiler::expect(int phase, std::uint64_t n, int slot) {
  progress_phase_.store(phase, std::memory_order_relaxed);
  cell_add(expected_[slot], n);
}

ProfProgress Profiler::progress() const {
  ProfProgress p;
  for (int s = 0; s < kSlots; ++s) {
    const ProfProgress one = progress(s);
    p.done += one.done;
    p.total += one.total;
  }
  return p;
}

ProfProgress Profiler::progress(int slot) const {
  ProfProgress p;
  p.total = expected_[slot].load(std::memory_order_relaxed);
  const int phase = progress_phase_.load(std::memory_order_relaxed);
  if (phase >= 0)
    p.done = cell(phase, slot).v[kCount].load(std::memory_order_relaxed);
  return p;
}

void Profiler::trace(int phase, int slot, std::int64_t t0, std::int64_t t1,
                     const char* name, std::int64_t point, std::int64_t run) {
  if (tracer_ == nullptr) return;
  tracer_->record(slot, name != nullptr ? name : names_[phase],
                  t0 - tracer_->epoch_ns(), t1 - t0, point, run,
                  names_[phase]);
  maybe_sample(slot, t1);
}

std::vector<ProfPhaseTotals> Profiler::snapshot() const {
  return totals(0, kSlots);
}

std::vector<ProfPhaseTotals> Profiler::snapshot(int slot) const {
  PASERTA_REQUIRE(slot >= 0 && slot < kSlots,
                  "profiler slot " << slot << " out of range");
  return totals(slot, slot + 1);
}

std::vector<ProfPhaseTotals> Profiler::totals(int first, int last) const {
  const int n = phase_count_.load(std::memory_order_acquire);
  std::vector<ProfPhaseTotals> out(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    out[p].name = names_[p];
    out[p].top_level = top_level_[p];
  }
  for (int p = 0; p < n; ++p) {
    std::uint64_t acc[kFields] = {};
    for (int s = first; s < last; ++s) {
      const Cell& c = cell(p, s);
      for (int f = 0; f < kFields; ++f)
        acc[f] += c.v[f].load(std::memory_order_relaxed);
    }
    out[p].count = acc[kCount];
    out[p].ns = acc[kNs];
    out[p].cycles = acc[kCycles];
    out[p].instructions = acc[kInstructions];
    out[p].cache_refs = acc[kCacheRefs];
    out[p].cache_misses = acc[kCacheMisses];
    out[p].branch_misses = acc[kBranchMisses];
  }
  return out;
}

void Profiler::export_delta_to(MetricsRegistry& reg) {
  const std::vector<ProfPhaseTotals> snap = snapshot();
  std::lock_guard<std::mutex> lock(m_);
  exported_.resize(snap.size() * kFields, 0);
  for (std::size_t p = 0; p < snap.size(); ++p) {
    const std::uint64_t totals[kFields] = {
        snap[p].count,      snap[p].ns,          snap[p].cycles,
        snap[p].instructions, snap[p].cache_refs, snap[p].cache_misses,
        snap[p].branch_misses,
    };
    static constexpr const char* kFieldNames[kFields] = {
        "count",      "ns",           "cycles",      "instructions",
        "cache_refs", "cache_misses", "branch_misses",
    };
    const int fields = hardware_ ? kFields : 2;  // count + ns only
    for (int f = 0; f < fields; ++f) {
      std::uint64_t& last = exported_[p * kFields + f];
      const std::uint64_t delta = totals[f] - last;
      last = totals[f];
      reg.counter("prof." + snap[p].name + "." + kFieldNames[f]).add(delta);
    }
  }
}

std::vector<ProfSample> Profiler::samples() const {
  std::lock_guard<std::mutex> lock(m_);
  return samples_;
}

void Profiler::maybe_sample(int slot, std::int64_t now) {
  const std::int64_t next =
      next_sample_ns_[slot].load(std::memory_order_relaxed);
  if (now < next) return;
  next_sample_ns_[slot].store(now + kSampleIntervalNs,
                              std::memory_order_relaxed);
  ProfSample s;
  s.ts_ns = now;
  s.slot = slot;
  const int n = phase_count_.load(std::memory_order_acquire);
  for (int p = 0; p < n; ++p) {
    const Cell& c = cell(p, slot);
    s.ns += c.v[kNs].load(std::memory_order_relaxed);
    s.cycles += c.v[kCycles].load(std::memory_order_relaxed);
    s.instructions += c.v[kInstructions].load(std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(m_);
  if (samples_.size() < kMaxSamples) samples_.push_back(s);
}

void ProfScope::begin(int phase, int slot) {
  phase_ = phase;
  slot_ = slot;
#if defined(__linux__)
  if (prof_->hardware()) {
    if (PerfGroup* g = thread_group())
      hw_ = g->read(hw0_, te0_, tr0_);
  }
#endif
  t0_ = now_ns();
}

void ProfScope::end() {
  const std::int64_t t1 = now_ns();
  Profiler::Cell& c = prof_->cell(phase_, slot_);
  cell_add(c.v[Profiler::kCount], 1);
  cell_add(c.v[Profiler::kNs],
           t1 > t0_ ? static_cast<std::uint64_t>(t1 - t0_) : 0);
#if defined(__linux__)
  if (hw_) {
    std::uint64_t hw1[5];
    std::uint64_t te1 = 0, tr1 = 0;
    if (PerfGroup* g = thread_group(); g != nullptr && g->read(hw1, te1, tr1)) {
      // Multiplex scaling: when the PMU time-shared this group with others
      // during the scope, extrapolate the delta by enabled/running.
      const std::uint64_t d_te = te1 - te0_;
      const std::uint64_t d_tr = tr1 - tr0_;
      const double scale =
          (d_tr > 0 && d_tr != d_te)
              ? static_cast<double>(d_te) / static_cast<double>(d_tr)
              : 1.0;
      static constexpr Profiler::Field kHwFields[5] = {
          Profiler::kCycles,      Profiler::kInstructions,
          Profiler::kCacheRefs,   Profiler::kCacheMisses,
          Profiler::kBranchMisses,
      };
      for (int e = 0; e < 5; ++e) {
        const std::uint64_t raw = hw1[e] - hw0_[e];
        const std::uint64_t scaled =
            scale == 1.0
                ? raw
                : static_cast<std::uint64_t>(static_cast<double>(raw) * scale);
        cell_add(c.v[kHwFields[e]], scaled);
      }
    }
  }
#endif
  prof_->trace(phase_, slot_, t0_, t1, name_, point_, run_);
}

}  // namespace paserta
