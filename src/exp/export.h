// Shared trace/summary export for bench drivers.
//
// Every driver that takes --trace exports through this one loop: it walks
// the run matrix in slot order, schedulers in name order within a run, and
// writes one labeled section per (run, scheduler) plus a .summary.json with
// the pooled counters. That walk does not depend on the worker count, so
// the files are byte-identical at any --jobs. Both files go through
// write_file_atomic (common/atomic_file.h), so an interrupted export never
// leaves a truncated trace for validate_trace.py to choke on.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "exp/experiment.h"

namespace gurita {

/// Optional extras for export_traces.
struct ExportOptions {
  /// Splice a "diagnostics" object into the summary JSON: the pooled
  /// allocator work counters (component-size percentiles included) and the
  /// per-subsystem reserved-memory peaks. The memory peaks are capacity
  /// dependent, so the object is deliberately excluded from the determinism
  /// fingerprint legs, which never pass --diagnostics.
  bool diagnostics = false;
};

/// Exports the traces of `results` to `path` as JSONL, one section per
/// run × scheduler labeled "<labels[i]>/<scheduler>", plus
/// `<path>.summary.json` holding per-kind record counts, the engine cost
/// counters pooled over every run (counters summed, the makespan gauge the
/// max), and deterministic latency histograms
/// ("jct", "queue_wait", "retry_backoff") with p50/p95/p99. The walk is
/// slot order then map (name) order — the same at any worker count, so the
/// files are byte-identical at any --jobs (diagnostics excepted; see
/// ExportOptions). `labels` must be parallel to `results`. Returns the
/// total record count written.
std::size_t export_traces(const std::vector<std::string>& labels,
                          const std::vector<ComparisonResult>& results,
                          const std::string& path,
                          const ExportOptions& options = {});

/// Exports phase spans (SimResults::spans) and sampler records as a Chrome
/// Trace Event Format JSON (obs/chrome_trace.h) at `path`, one track per
/// run × scheduler. Load it at ui.perfetto.dev or chrome://tracing.
/// Wall-clock telemetry; never part of determinism checks.
void export_chrome_trace(const std::vector<std::string>& labels,
                         const std::vector<ComparisonResult>& results,
                         const std::string& path);

}  // namespace gurita
