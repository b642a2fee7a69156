#include "obs/metrics.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "common/error.h"
#include "harness/json.h"

namespace paserta {

Histogram::Histogram(std::span<const double> upper_bounds)
    : bounds_(upper_bounds.begin(), upper_bounds.end()) {
  PASERTA_REQUIRE(bounds_.size() + 1 <= kMaxBuckets,
                  "histogram limited to " << kMaxBuckets - 1 << " bounds, got "
                                          << bounds_.size());
  for (std::size_t i = 1; i < bounds_.size(); ++i)
    PASERTA_REQUIRE(bounds_[i - 1] < bounds_[i],
                    "histogram bounds must be strictly ascending");
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < bucket_count(); ++b) total += bucket_value(b);
  return total;
}

double Histogram::percentile(double q) const {
  PASERTA_REQUIRE(q >= 0.0 && q <= 1.0,
                  "percentile quantile must be in [0, 1], got " << q);
  const std::uint64_t total = count();
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();
  // No finite bounds: everything lives in the overflow bucket and there is
  // no finite edge to clamp to.
  if (bounds_.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < bounds_.size(); ++b) {
    const std::uint64_t in_bucket = bucket_value(b);
    cumulative += in_bucket;
    if (static_cast<double>(cumulative) >= rank) {
      const double upper = bounds_[b];
      const double lower = b == 0 ? 0.0 : bounds_[b - 1];
      if (in_bucket == 0) return upper;
      const std::uint64_t below = cumulative - in_bucket;
      const double frac =
          (rank - static_cast<double>(below)) / static_cast<double>(in_bucket);
      return lower + (upper - lower) * frac;
    }
  }
  // Rank lands in the overflow bucket: clamp to the last finite bound.
  return bounds_.back();
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

void SimCounters::add(const SimCounters& o) {
  dispatches += o.dispatches;
  tasks += o.tasks;
  or_fires += o.or_fires;
  speed_changes += o.speed_changes;
  spec_picks += o.spec_picks;
  greedy_picks += o.greedy_picks;
  reclaimed_slack_ps += o.reclaimed_slack_ps;
  idle_ps += o.idle_ps;
  if (o.levels == 0) return;  // other side carries no ledger
  if (levels == 0) {
    // Adopt the other ledger's shape wholesale.
    levels = o.levels;
    busy_ps = o.busy_ps;
    compute_ps = o.compute_ps;
    transitions = o.transitions;
    return;
  }
  PASERTA_REQUIRE(levels == o.levels,
                  "SimCounters ledgers recorded against different power "
                  "tables (" << levels << " vs " << o.levels << " levels)");
  for (std::size_t i = 0; i < busy_ps.size(); ++i) busy_ps[i] += o.busy_ps[i];
  for (std::size_t i = 0; i < compute_ps.size(); ++i)
    compute_ps[i] += o.compute_ps[i];
  for (std::size_t i = 0; i < transitions.size(); ++i)
    transitions[i] += o.transitions[i];
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(m_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(m_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::span<const double> upper_bounds) {
  std::lock_guard<std::mutex> lock(m_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>(upper_bounds);
    return *slot;
  }
  PASERTA_REQUIRE(
      slot->bounds() ==
          std::vector<double>(upper_bounds.begin(), upper_bounds.end()),
      "histogram '" << name << "' re-registered with different bounds");
  return *slot;
}

MetricHandles* MetricsRegistry::find_handles(const std::string& key) const {
  std::lock_guard<std::mutex> lock(m_);
  const auto it = handle_sets_.find(key);
  return it != handle_sets_.end() ? it->second.get() : nullptr;
}

MetricHandles& MetricsRegistry::publish_handles(
    const std::string& key, std::unique_ptr<MetricHandles> handles) {
  std::lock_guard<std::mutex> lock(m_);
  // Another thread may have built the same set meanwhile: keep the first.
  return *handle_sets_.try_emplace(key, std::move(handles)).first->second;
}

SimCounterHandles& SimCounterHandles::of(MetricsRegistry& reg,
                                         const std::string& prefix,
                                         std::uint32_t levels) {
  return reg.handles<SimCounterHandles>(
      prefix + "#" + std::to_string(levels), [&] {
        return std::make_unique<SimCounterHandles>(reg, prefix, levels);
      });
}

SimCounterHandles::SimCounterHandles(MetricsRegistry& reg, std::string prefix,
                                     std::uint32_t levels)
    : reg_(reg),
      prefix_(std::move(prefix)),
      levels_(levels),
      compute_(new std::atomic<Counter*>[levels]),
      transitions_(new std::atomic<Counter*>[std::size_t{levels} * levels]) {
  static constexpr const char* kFixed[8] = {
      ".dispatches",   ".tasks",        ".or_fires",
      ".speed_changes", ".spec_picks",  ".greedy_picks",
      ".reclaimed_slack_ps", ".idle_ps"};
  for (std::size_t f = 0; f < fixed_.size(); ++f)
    fixed_[f] = &reg_.counter(prefix_ + kFixed[f]);
  for (std::uint32_t l = 0; l < levels_; ++l) {
    busy_.push_back(&reg_.counter(prefix_ + ".busy_ps.L" + std::to_string(l)));
    compute_[l].store(nullptr, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < std::size_t{levels_} * levels_; ++i)
    transitions_[i].store(nullptr, std::memory_order_relaxed);
}

Counter& SimCounterHandles::sparse(std::atomic<Counter*>& h,
                                   const char* field, std::uint32_t from,
                                   std::int64_t to) {
  Counter* c = h.load(std::memory_order_acquire);
  if (c == nullptr) {
    // Racing registrations resolve to the same counter.
    std::string name = prefix_ + field + ".L" + std::to_string(from);
    if (to >= 0) name += "_L" + std::to_string(to);
    c = &reg_.counter(name);
    h.store(c, std::memory_order_release);
  }
  return *c;
}

void SimCounterHandles::add(const SimCounters& c) {
  PASERTA_REQUIRE(c.levels == levels_,
                  "SimCounters ledger of " << c.levels
                                           << " levels exported through "
                                           << levels_ << "-level handles");
  const std::uint64_t fixed[8] = {
      c.dispatches,  c.tasks,        c.or_fires,
      c.speed_changes, c.spec_picks, c.greedy_picks,
      c.reclaimed_slack_ps, c.idle_ps};
  for (std::size_t f = 0; f < fixed_.size(); ++f)
    if (fixed[f] != 0) fixed_[f]->add(fixed[f]);
  // Energy-attribution ledger: per-level time counters, transition counts
  // per (from, to) level pair (only the pairs that fired — an L x L matrix
  // of mostly-zero names would drown the export), and total idle time.
  // With the power table and overheads these rebuild the paper's busy /
  // overhead / idle energy split (attribution_energy).
  for (std::uint32_t l = 0; l < levels_; ++l) {
    if (c.busy_ps[l] != 0) busy_[l]->add(c.busy_ps[l]);
    if (c.compute_ps[l] != 0)
      sparse(compute_[l], ".compute_ps", l, -1).add(c.compute_ps[l]);
  }
  for (std::uint32_t from = 0; from < levels_; ++from)
    for (std::uint32_t to = 0; to < levels_; ++to) {
      const std::size_t i = std::size_t{from} * levels_ + to;
      if (c.transitions[i] != 0)
        sparse(transitions_[i], ".transitions", from, to)
            .add(c.transitions[i]);
    }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(m_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_)
    snap.counters.push_back({name, c->value()});
  for (const auto& [name, g] : gauges_)
    snap.gauges.push_back({name, g->value()});
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramRow row;
    row.name = name;
    row.bounds = h->bounds();
    for (std::size_t b = 0; b < h->bucket_count(); ++b)
      row.buckets.push_back(h->bucket_value(b));
    row.count = h->count();
    row.sum = h->sum();
    snap.histograms.push_back(std::move(row));
  }
  return snap;  // std::map iteration keeps every section name-sorted
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(m_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::string metrics_to_json(const MetricsSnapshot& snap) {
  std::ostringstream os;
  JsonWriter w(os, 2);
  w.begin_object();
  w.key("counters").begin_array();
  for (const auto& c : snap.counters) {
    w.begin_object().key("name").value(c.name).key("value").value(c.value)
        .end_object();
  }
  w.end_array();
  w.key("gauges").begin_array();
  for (const auto& g : snap.gauges)
    w.begin_object().key("name").value(g.name).key("value").value(g.value)
        .end_object();
  w.end_array();
  w.key("histograms").begin_array();
  for (const auto& h : snap.histograms) {
    w.begin_object().key("name").value(h.name).key("count").value(h.count)
        .key("sum").value(h.sum);
    w.key("buckets").begin_array();
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      const bool overflow = b >= h.bounds.size();
      w.begin_object().key("le");
      if (overflow)
        w.value("inf");
      else
        w.value(h.bounds[b]);
      w.key("count").value(h.buckets[b]).end_object();
    }
    w.end_array().end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
  return os.str();
}

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; the registry's dotted
/// hierarchy (engine.GSS.dispatches) maps onto underscores.
std::string prometheus_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(0, 1, '_');
  return out;
}

/// Prometheus sample values are rendered like JSON numbers except for the
/// non-finite cases, which the text format spells "+Inf" / "-Inf" / "NaN"
/// (json_num's "null" is not a valid sample value).
std::string prom_num(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return json_num(v);
}

/// HELP text: the registry's original dotted name, which the sanitized
/// Prometheus name cannot always be mapped back to ('.' and '-' both
/// become '_'). Escapes the two characters the format requires.
void write_help(std::ostream& os, const std::string& prom,
                const std::string& original) {
  os << "# HELP " << prom << " paserta metric ";
  for (const char c : original) {
    if (c == '\\')
      os << "\\\\";
    else if (c == '\n')
      os << "\\n";
    else
      os << c;
  }
  os << "\n";
}

}  // namespace

std::string metrics_to_prometheus(const MetricsSnapshot& snap) {
  std::ostringstream os;
  for (const auto& c : snap.counters) {
    const std::string name = prometheus_name(c.name);
    write_help(os, name, c.name);
    os << "# TYPE " << name << " counter\n";
    os << name << " " << c.value << "\n";
  }
  for (const auto& g : snap.gauges) {
    const std::string name = prometheus_name(g.name);
    write_help(os, name, g.name);
    os << "# TYPE " << name << " gauge\n";
    os << name << " " << prom_num(g.value) << "\n";
  }
  for (const auto& h : snap.histograms) {
    const std::string name = prometheus_name(h.name);
    write_help(os, name, h.name);
    os << "# TYPE " << name << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      cumulative += h.buckets[b];
      const bool overflow = b >= h.bounds.size();
      os << name << "_bucket{le=\""
         << (overflow ? std::string("+Inf") : json_num(h.bounds[b])) << "\"} "
         << cumulative << "\n";
    }
    os << name << "_sum " << prom_num(h.sum) << "\n";
    os << name << "_count " << h.count << "\n";
  }
  return os.str();
}

}  // namespace paserta
