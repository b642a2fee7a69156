#include "util.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <thread>

#include <malloc.h>
#include <time.h>
#include <sys/resource.h>
#include <unistd.h>

#include "harness/json.h"

// ---- heap accounting ------------------------------------------------------
//
// The global allocation functions are replaced so the benchmark can measure
// how many bytes a library call retains (harness.bytes_per_run) without
// instrumenting the library. Counting is off by default: the only cost on
// the measured paths is one relaxed load per allocation.

namespace {

std::atomic<bool> g_track{false};
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void note_alloc(void* p) {
  if (p == nullptr || !g_track.load(std::memory_order_relaxed)) return;
  const auto n = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void note_free(void* p) {
  if (p == nullptr || !g_track.load(std::memory_order_relaxed)) return;
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
}

void* checked_malloc(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void* checked_aligned(std::size_t n, std::align_val_t al) {
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = ((n == 0 ? 1 : n) + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void release(void* p) {
  note_free(p);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return checked_malloc(n); }
void* operator new[](std::size_t n) { return checked_malloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return checked_malloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return checked_malloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return checked_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return checked_aligned(n, al);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

int SpanLog::open(const char* name, int parent, std::int64_t op) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, now_ns(), 0, parent, op});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::close(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

int SpanLog::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                 int parent, std::int64_t op) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, start_ns, end_ns, parent, op});
  return static_cast<int>(spans_.size() - 1);
}

std::string SpanLog::write(const Options& o) const {
  const std::string path = o.out_dir + "/trace-" + o.workload + "-" +
                           std::to_string(o.seed) + ".json";
  std::ofstream os(path);
  if (!os) return {};
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "{\"spans\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "" : ",\n") << "{\"id\":" << i << ",\"name\":\""
       << s.name << "\",\"start_ns\":" << (s.start_ns - t0)
       << ",\"end_ns\":" << (s.end_ns - t0) << ",\"parent\":" << s.parent
       << ",\"op\":" << s.op << "}";
  }
  os << "\n]}\n";
  return os ? path : std::string();
}

void heap_tracking(bool on) {
  if (on) {
    g_live.store(0, std::memory_order_relaxed);
    g_peak.store(0, std::memory_order_relaxed);
  }
  g_track.store(on, std::memory_order_relaxed);
}

std::int64_t heap_live_bytes() { return g_live.load(std::memory_order_relaxed); }

std::int64_t heap_peak_bytes() { return g_peak.load(std::memory_order_relaxed); }

double process_cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

namespace {

/// The "VmHWM:" line of /proc/<pid>/status, in MB; negative if absent.
double status_hwm_mb(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ls(line.substr(6));
      double kb = -1.0;
      ls >> kb;
      return kb < 0.0 ? -1.0 : kb / 1024.0;
    }
  }
  return -1.0;
}

}  // namespace

double process_peak_rss_mb() { return status_hwm_mb("/proc/self/status"); }

double pid_cpu_seconds(pid_t pid) {
  clockid_t clk{};
  timespec ts{};
  if (::clock_getcpuclockid(pid, &clk) != 0 || ::clock_gettime(clk, &ts) != 0)
    return -1.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double pid_peak_rss_mb(pid_t pid) {
  return status_hwm_mb("/proc/" + std::to_string(pid) + "/status");
}

namespace {

constexpr std::size_t kProbeWords = std::size_t{1} << 16;  // 512 KB
constexpr int kProbeSteps = 200000;
/// About the probe's time when it runs alone on the 4-core host the
/// benchmark was defined on (inside a run it reads 3 to 3.7 ms there).
constexpr double kProbeRefS = 2.5e-3;

}  // namespace

HostSpeed::HostSpeed() : words_(kProbeWords, 1) {}

void HostSpeed::sample() {
  std::uint64_t x = probe_s_.size();
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kProbeSteps; ++i) {
    const std::size_t at = x & (kProbeWords - 1);
    words_[at] += x;
    x = mix64(x ^ words_[(at * 7) & (kProbeWords - 1)]);
  }
  probe_s_.push_back(seconds_since(t0));
  // Keeps the walk from being optimized away.
  words_[0] ^= x;
}

double HostSpeed::slowdown() const {
  return probe_s_.empty() ? 1.0 : median(probe_s_) / kProbeRefS;
}

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void Result::note(const std::string& key, double value) {
  notes.emplace_back(key, paserta::json_num(value));
}

void Result::note(const std::string& key, const std::vector<double>& values) {
  std::string s;
  for (const double v : values) {
    if (!s.empty()) s += ' ';
    s += paserta::json_num(v);
  }
  notes.emplace_back(key, s);
}

std::string result_json(const Result& r) {
  std::ostringstream os;
  paserta::JsonWriter w(os);
  w.begin_object()
      .key("correct").value(r.correct)
      .key("attempted").value(static_cast<unsigned long long>(r.attempted))
      .key("failed").value(static_cast<unsigned long long>(r.failed))
      .key("metrics").begin_object();
  for (const Metric& m : r.metrics) {
    // Full precision: runs are compared on raw values.
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    w.key(m.name).begin_object().key("value").raw(num).key("unit").value(
        m.unit).end_object();
  }
  w.end_object().end_object();
  return os.str();
}

std::string notes_json(const Result& r) {
  std::ostringstream os;
  paserta::JsonWriter w(os);
  w.begin_object();
  for (const auto& [k, v] : r.notes) w.key(k).value(v);
  w.end_object();
  return os.str();
}

}  // namespace perfbench
