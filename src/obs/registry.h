// Counter / gauge registry.
//
// A named, ordered collection of monotone counters (std::uint64_t, folded
// by summing) and gauges (double, folded by max — the semantics of
// makespan, the registry's canonical gauge). Pooling happens as values are
// written: export_traces (exp/export.h) projects every run's
// SimResults::export_counters into one registry, so the summary's counters
// are the sums and its makespan the max over the pooled runs — the same
// totals SimResults::merge_counters gives (DESIGN.md §10; enforced by
// tests/obs_test.cpp across 1/2/8 workers).
//
// Names are dot-scoped by convention ("engine.events", "trace.queue_change");
// storage is a std::map so every iteration and export is deterministic in
// name order.
//
// Histograms (common/stats LogHistogram) are the third member kind:
// log-bucketed distributions (JCT, queue wait, retry backoff) whose
// pooling — bucket-count summation — is order-independent like the
// counters', so pooled exports are byte-identical at any worker count.
// Every JSON export carries p50/p95/p99 per histogram.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>

#include "common/check.h"
#include "common/stats.h"

namespace gurita::obs {

class Registry {
 public:
  /// Adds `delta` to counter `name` (creating it at zero).
  void add(const std::string& name, std::uint64_t delta = 1) {
    counters_[name] += delta;
  }
  /// Folds `value` into gauge `name` by max (creating it at `value`).
  void max_gauge(const std::string& name, double value) {
    auto [it, inserted] = gauges_.emplace(name, value);
    if (!inserted) it->second = std::max(it->second, value);
  }

  /// Counter value, 0 if absent.
  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  /// Gauge value, 0 if absent.
  [[nodiscard]] double gauge(const std::string& name) const {
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
  }

  /// Histogram `name`, created with log base `base` on first use. A later
  /// call with a different base is a bug (checked): histogram spacing is
  /// part of the metric's identity.
  LogHistogram& histogram(const std::string& name, double base = 10.0) {
    auto [it, inserted] = histograms_.try_emplace(name, base);
    GURITA_CHECK_MSG(inserted || it->second.base() == base,
                     "histogram re-declared with a different base: " + name);
    return it->second;
  }
  /// Records `x` into histogram `name` (creating it with the default base).
  void observe(const std::string& name, double x) { histogram(name).add(x); }

  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, double>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, LogHistogram>& histograms() const {
    return histograms_;
  }

  /// Deterministic JSON object:
  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}, keys in
  /// name order, doubles at full round-trip precision. Each histogram
  /// carries base/count/zeros, p50/p95/p99 and the sparse bucket table.
  [[nodiscard]] std::string to_json() const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, LogHistogram> histograms_;
};

}  // namespace gurita::obs
