#include "obs/chrome_trace.h"

#include "common/json.h"

namespace gurita::obs {

namespace {

/// Emits one counter event: {"name":..., "ph":"C", "pid":..., "ts":...,
/// "args":{...}} with args supplied by the caller via a callback-free
/// key/value list.
void emit_counter(std::string& line, std::ostream& out, bool& first, int pid,
                  const char* name, double ts_us,
                  const std::vector<std::pair<const char*, double>>& args) {
  line.clear();
  line += first ? "\n" : ",\n";
  first = false;
  line += "  {\"name\": \"";
  line += name;
  line += "\", \"ph\": \"C\", \"pid\": ";
  line += std::to_string(pid);
  line += ", \"tid\": 0, \"ts\": ";
  append_number(line, ts_us);
  line += ", \"args\": {";
  bool first_arg = true;
  for (const auto& [key, value] : args) {
    if (!first_arg) line += ", ";
    line += '"';
    line += key;
    line += "\": ";
    append_number(line, value);
    first_arg = false;
  }
  line += "}}";
  out << line;
}

}  // namespace

void write_chrome_trace(std::ostream& out,
                        const std::vector<ChromeTrack>& tracks) {
  out << "{\"traceEvents\": [";
  bool first = true;
  std::string line;
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    const ChromeTrack& track = tracks[i];
    const int pid = static_cast<int>(i) + 1;

    line.clear();
    line += first ? "\n" : ",\n";
    first = false;
    line += "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": ";
    line += std::to_string(pid);
    line += ", \"args\": {\"name\": \"";
    append_escaped(line, track.name);
    line += "\"}}";
    out << line;

    for (const PhaseSpan& span : track.spans) {
      if (span.phase < 0 || span.phase >= kNumPhases) continue;
      line.clear();
      line += ",\n  {\"name\": \"";
      line += phase_name(static_cast<Phase>(span.phase));
      line += "\", \"ph\": \"X\", \"pid\": ";
      line += std::to_string(pid);
      line += ", \"tid\": 0, \"ts\": ";
      append_number(line, static_cast<double>(span.start_ns) / 1e3);
      line += ", \"dur\": ";
      append_number(line,
                    static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      line += "}";
      out << line;
    }

    for (const TraceRecord& r : track.samples) {
      // Sim-time tracks: simulation seconds rendered as microseconds.
      const double ts_us = r.time * 1e6;
      if (r.kind == TraceEventKind::kSample) {
        emit_counter(line, out, first, pid, "active (sim-time)", ts_us,
                     {{"flows", static_cast<double>(r.i0)},
                      {"coflows", static_cast<double>(r.i1)},
                      {"jobs", static_cast<double>(r.i2)}});
        emit_counter(line, out, first, pid, "events_per_sec (sim-time)",
                     ts_us, {{"events_per_sec", r.v1}});
        emit_counter(line, out, first, pid, "calendar (sim-time)", ts_us,
                     {{"entries", r.v2}});
      } else if (r.kind == TraceEventKind::kMemSample) {
        emit_counter(line, out, first, pid, "live_bytes (sim-time)", ts_us,
                     {{"state", r.v0},
                      {"calendar", r.v1},
                      {"retry", r.v2},
                      {"trace", r.v3},
                      {"active_set", r.v4}});
      }
    }
  }
  out << (first ? "]}\n" : "\n]}\n");
}

}  // namespace gurita::obs
