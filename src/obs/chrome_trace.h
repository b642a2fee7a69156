// Chrome/Perfetto trace-event export for obs/trace.h.
//
// Emits the JSON object format of the Trace Event spec ("traceEvents"
// array of complete "X" events plus "M" thread-name metadata), which both
// chrome://tracing and ui.perfetto.dev load directly: one process, one
// track (tid) per worker-pool slot, each span's "cat" its profiler phase,
// span args carrying the sweep-point and run indices. Timestamps are
// microseconds relative to the tracer's epoch, as the spec requires. The
// spec's "otherData" dictionary carries "dropped_events": spans the
// tracer counted but did not store (Tracer::kMaxSlotEvents).
#pragma once

#include <iosfwd>
#include <string>

namespace paserta {

class Profiler;
class Tracer;

/// Writes the full trace document. Call after all recording threads have
/// joined (Tracer::events contract). With a profiler, its rate-limited
/// counter samples (obs/prof.h) are spliced in as Perfetto counter tracks
/// ("C" events): one "prof slot <n>" track of cycles, instructions and
/// busy_ns per slot that recorded samples, timestamps rebased from the raw
/// steady clock onto the tracer's epoch.
void write_chrome_trace(std::ostream& os, const Tracer& tracer,
                        const Profiler* prof = nullptr);

/// Same document as a string (tests, small traces).
std::string chrome_trace_to_json(const Tracer& tracer);

}  // namespace paserta
