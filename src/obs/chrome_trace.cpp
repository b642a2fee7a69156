#include "obs/chrome_trace.h"

#include <ostream>
#include <set>
#include <sstream>

#include "harness/json.h"
#include "obs/prof.h"
#include "obs/trace.h"

namespace paserta {
namespace {

/// Microseconds with nanosecond resolution kept as a decimal fraction —
/// the trace-event spec's "ts"/"dur" unit.
std::string us(std::int64_t ns) {
  std::ostringstream os;
  os << ns / 1000 << "." << (ns % 1000 < 100 ? "0" : "")
     << (ns % 1000 < 10 ? "0" : "") << ns % 1000;
  return os.str();
}

void write_args(JsonWriter& w, const TraceEvent& ev) {
  if (ev.point < 0 && ev.run < 0) return;
  w.key("args").begin_object();
  if (ev.point >= 0) w.key("point").value(ev.point);
  if (ev.run >= 0) w.key("run").value(ev.run);
  w.end_object();
}

}  // namespace

void write_chrome_trace(std::ostream& os, const Tracer& tracer,
                        const Profiler* prof) {
  const std::vector<TraceEvent> events = tracer.events();
  std::set<int> slots;
  for (const TraceEvent& ev : events) slots.insert(ev.slot);

  // One event per physical line (compact writer + manual newlines) keeps
  // big traces diffable and greppable.
  JsonWriter w(os);
  w.begin_object().key("traceEvents").begin_array();
  // Thread-name metadata first: Perfetto labels each slot's track.
  for (int slot : slots) {
    os << "\n";
    w.begin_object()
        .key("ph").value("M").key("pid").value(1).key("tid").value(slot)
        .key("name").value("thread_name")
        .key("args").begin_object()
        .key("name")
        .value(slot == 0 ? "slot 0 (caller)" : "slot " + std::to_string(slot))
        .end_object().end_object();
  }
  for (const TraceEvent& ev : events) {
    os << "\n";
    w.begin_object()
        .key("name").value(ev.name).key("cat").value(ev.cat)
        .key("ph").value("X")
        .key("pid").value(1).key("tid").value(ev.slot)
        .key("ts").raw(us(ev.ts_ns))
        .key("dur").raw(us(ev.dur_ns));
    write_args(w, ev);
    w.end_object();
  }
  // Profiler counter tracks: cumulative per-slot cycle / instruction /
  // busy-ns samples as "C" events, rebased onto the tracer's timeline.
  // Samples older than the tracer (a profiler paired with another tracer)
  // would land at negative timestamps; they are dropped.
  if (prof != nullptr) {
    const std::int64_t epoch = tracer.epoch_ns();
    for (const ProfSample& s : prof->samples()) {
      const std::int64_t ts = s.ts_ns - epoch;
      if (ts < 0) continue;
      os << "\n";
      w.begin_object()
          .key("name")
          .value("prof slot " + std::to_string(s.slot))
          .key("cat").value("paserta").key("ph").value("C")
          .key("pid").value(1).key("tid").value(s.slot)
          .key("ts").raw(us(ts))
          .key("args").begin_object()
          .key("cycles").value(s.cycles)
          .key("instructions").value(s.instructions)
          .key("busy_ns").value(s.ns)
          .end_object().end_object();
    }
  }
  os << "\n";
  w.end_array().key("displayTimeUnit").value("ms").end_object();
  os << "\n";
}

std::string chrome_trace_to_json(const Tracer& tracer) {
  std::ostringstream os;
  write_chrome_trace(os, tracer);
  return os.str();
}

}  // namespace paserta
