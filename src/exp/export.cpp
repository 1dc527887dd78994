#include "exp/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <ostream>

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/json.h"
#include "obs/chrome_trace.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace gurita {

namespace {

/// Feeds the deterministic latency histograms from one run's results:
/// "jct" (non-failed jobs), "queue_wait" (coflow release − job arrival;
/// zero for stage-1 coflows released at arrival) and "retry_backoff"
/// (kFlowRetry latency records). All pure functions of the pooled results,
/// so the exported percentiles are byte-identical at any worker count.
void observe_latencies(const SimResults& res, obs::Registry& registry) {
  for (const SimResults::JobResult& j : res.jobs) {
    if (j.failed) continue;
    registry.observe("jct", j.jct());
  }
  for (const SimResults::CoflowResult& c : res.coflows) {
    if (c.failed || c.release < 0) continue;
    // Look the owning job up by id, not by index: batch populations are
    // dense, but a daemon run's external ids keep the gaps left by shed
    // jobs (service/daemon.h), so jobs[i].id == i does not hold there.
    const auto it = std::lower_bound(
        res.jobs.begin(), res.jobs.end(), c.job.value(),
        [](const SimResults::JobResult& j, std::uint64_t id) {
          return j.id.value() < id;
        });
    if (it == res.jobs.end() || it->id.value() != c.job.value()) continue;
    registry.observe("queue_wait", c.release - it->arrival);
  }
  for (const obs::TraceRecord& r : res.trace)
    if (r.kind == obs::TraceEventKind::kFlowRetry)
      registry.observe("retry_backoff", r.v0);
}

void append_u64(std::string& out, const char* key, std::uint64_t v,
                bool* first) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": %" PRIu64, *first ? "" : ", ",
                key, v);
  *first = false;
  out += buf;
}

void append_f64(std::string& out, const char* key, double v, bool* first) {
  out += *first ? "\"" : ", \"";
  out += key;
  out += "\": ";
  append_number(out, v);
  *first = false;
}

/// The non-deterministic "diagnostics" object (ExportOptions): pooled
/// allocator work counters and reserved-memory peaks.
std::string diagnostics_json(const SimResults::Diagnostics& diag) {
  std::string out = "{\n    \"alloc\": {";
  bool first = true;
  append_u64(out, "allocations", diag.alloc.allocations, &first);
  append_u64(out, "flows_solved", diag.alloc.flows_solved, &first);
  append_u64(out, "components_solved", diag.alloc.components_solved, &first);
  append_u64(out, "dirty_links", diag.alloc.dirty_links, &first);
  append_u64(out, "waterfill_rounds", diag.alloc.waterfill_rounds, &first);
  append_u64(out, "live_link_visits", diag.alloc.live_link_visits, &first);
  out += ", \"component_flows\": {";
  first = true;
  const LogHistogram& h = diag.alloc.component_flows;
  append_u64(out, "count", h.total(), &first);
  append_f64(out, "p50", h.total() > 0 ? h.percentile(50) : 0.0, &first);
  append_f64(out, "p95", h.total() > 0 ? h.percentile(95) : 0.0, &first);
  append_f64(out, "p99", h.total() > 0 ? h.percentile(99) : 0.0, &first);
  out += "}},\n    \"memory\": {";
  first = true;
  using S = obs::MemoryAccountant::Subsystem;
  for (int i = 0; i < obs::MemoryAccountant::kNumSubsystems; ++i) {
    const S s = static_cast<S>(i);
    const std::string key =
        std::string(obs::MemoryAccountant::subsystem_name(s)) + "_peak_bytes";
    append_u64(out, key.c_str(), diag.memory.peak(s), &first);
  }
  append_u64(out, "total_peak_bytes", diag.memory.peak_total(), &first);
  out += "}\n  }";
  return out;
}

}  // namespace

std::size_t export_traces(const std::vector<std::string>& labels,
                          const std::vector<ComparisonResult>& results,
                          const std::string& path,
                          const ExportOptions& options) {
  GURITA_CHECK_MSG(labels.size() == results.size(),
                   "labels and results must be parallel");
  obs::Registry registry;
  SimResults::Diagnostics diag;
  std::size_t total_records = 0;
  write_file_atomic(path, /*binary=*/false, [&](std::ostream& out) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      for (const auto& [name, res] : results[i].results) {
        obs::write_jsonl(out, res.trace, labels[i] + "/" + name);
        obs::export_trace_counters(res.trace, registry);
        res.export_counters(registry);
        observe_latencies(res, registry);
        if (options.diagnostics) diag.merge(res.diagnostics);
        total_records += res.trace.size();
      }
    }
  });
  std::string json = registry.to_json();
  if (options.diagnostics) {
    // Splice the non-fingerprinted diagnostics object before the closing
    // brace. Determinism legs never pass --diagnostics, so the fingerprint
    // always covers a diagnostics-free summary.
    const std::size_t pos = json.rfind('}');
    GURITA_CHECK_MSG(pos != std::string::npos, "malformed summary JSON");
    std::size_t cut = pos;
    while (cut > 0 && (json[cut - 1] == '\n' || json[cut - 1] == ' ')) --cut;
    json = json.substr(0, cut) + ",\n  \"diagnostics\": " +
           diagnostics_json(diag) + "\n}\n";
  }
  write_file_atomic(path + ".summary.json", /*binary=*/false,
                    [&](std::ostream& out) { out << json; });
  return total_records;
}

void export_chrome_trace(const std::vector<std::string>& labels,
                         const std::vector<ComparisonResult>& results,
                         const std::string& path) {
  GURITA_CHECK_MSG(labels.size() == results.size(),
                   "labels and results must be parallel");
  std::vector<obs::ChromeTrack> tracks;
  for (std::size_t i = 0; i < results.size(); ++i) {
    for (const auto& [name, res] : results[i].results) {
      obs::ChromeTrack track;
      track.name = labels[i] + "/" + name;
      track.spans = res.spans;
      for (const obs::TraceRecord& r : res.trace)
        if (r.kind == obs::TraceEventKind::kSample ||
            r.kind == obs::TraceEventKind::kMemSample)
          track.samples.push_back(r);
      tracks.push_back(std::move(track));
    }
  }
  write_file_atomic(path, /*binary=*/false, [&](std::ostream& out) {
    obs::write_chrome_trace(out, tracks);
  });
}

}  // namespace gurita
