// Chrome-trace (chrome://tracing / Perfetto) exporter.
//
// Renders PhaseProfiler spans and IntervalSampler records as a Trace Event
// Format JSON object ({"traceEvents": [...]}) that ui.perfetto.dev and
// chrome://tracing load directly. Each track is one process: phase spans
// become "X" (complete) events on thread 0, sampler records become "C"
// (counter) events. Span timestamps are wall-clock ns since the profiled
// run started; sampler timestamps are *simulation* seconds mapped to
// microseconds — the two kinds of track share a file, not a clock, which
// the track names call out. Wall-clock output: this exporter is telemetry
// outside the determinism contract (DESIGN.md §14).
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "obs/profiler.h"
#include "obs/trace.h"

namespace gurita::obs {

/// One process-level track of the exported trace.
struct ChromeTrack {
  /// Process name shown in the UI (e.g. "fig5/gurita").
  std::string name;
  /// Exclusive phase slices (PhaseProfiler::take_spans).
  std::vector<PhaseSpan> spans;
  /// Sampler records; kinds other than kSample/kMemSample are ignored.
  std::vector<TraceRecord> samples;
};

/// Writes the Trace Event Format JSON for `tracks`.
void write_chrome_trace(std::ostream& out,
                        const std::vector<ChromeTrack>& tracks);

}  // namespace gurita::obs
