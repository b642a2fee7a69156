#include "obs/trace.h"

#include <algorithm>

namespace paserta {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::record(int slot, const char* name, std::int64_t ts_ns,
                    std::int64_t dur_ns, std::int64_t point,
                    std::int64_t run, const char* cat) {
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat != nullptr ? cat : name;
  ev.slot = slot;
  ev.ts_ns = ts_ns;
  ev.dur_ns = dur_ns < 0 ? 0 : dur_ns;
  ev.point = point;
  ev.run = run;
  shards_[static_cast<std::size_t>(slot)].events.push_back(ev);
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> all;
  all.reserve(event_count());
  for (const Shard& s : shards_)
    all.insert(all.end(), s.events.begin(), s.events.end());
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
                     if (a.slot != b.slot) return a.slot < b.slot;
                     return a.dur_ns > b.dur_ns;  // parents before children
                   });
  return all;
}

std::size_t Tracer::event_count() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) n += s.events.size();
  return n;
}

}  // namespace paserta
