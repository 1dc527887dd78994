#include "obs/registry.h"

#include <cinttypes>
#include <cstdio>

#include "common/json.h"

namespace gurita::obs {

std::string Registry::to_json() const {
  std::string out = "{\n  \"counters\": {";
  char buf[64];
  bool first = true;
  for (const auto& [name, value] : counters_) {
    std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
    out += first ? "\n" : ",\n";
    out += "    \"" + name + "\": " + buf;
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges_) {
    out += first ? "\n" : ",\n";
    out += "    \"" + name + "\": ";
    append_number(out, value);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n" : ",\n";
    out += "    \"" + name + "\": {\"base\": ";
    append_number(out, h.base());
    std::snprintf(buf, sizeof(buf), ", \"count\": %" PRIu64,
                  static_cast<std::uint64_t>(h.total()));
    out += buf;
    std::snprintf(buf, sizeof(buf), ", \"zeros\": %" PRIu64,
                  static_cast<std::uint64_t>(h.zeros()));
    out += buf;
    // Empty histograms report 0 percentiles (the kernel requires samples).
    const bool have = h.total() > 0;
    out += ", \"p50\": ";
    append_number(out, have ? h.percentile(50) : 0.0);
    out += ", \"p95\": ";
    append_number(out, have ? h.percentile(95) : 0.0);
    out += ", \"p99\": ";
    append_number(out, have ? h.percentile(99) : 0.0);
    out += ", \"buckets\": [";
    bool first_bucket = true;
    for (const auto& [i, c] : h.buckets()) {
      if (!first_bucket) out += ", ";
      std::snprintf(buf, sizeof(buf), "[%d, %" PRIu64 "]", i,
                    static_cast<std::uint64_t>(c));
      out += buf;
      first_bucket = false;
    }
    out += "]}";
    first = false;
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

}  // namespace gurita::obs
