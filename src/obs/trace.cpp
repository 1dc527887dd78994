#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <istream>
#include <ostream>

#include "obs/registry.h"

namespace gurita::obs {

namespace {

/// Which slot of TraceRecord a kind-specific JSONL field maps to. One table
/// drives both the writer and the parser, so the two cannot drift.
enum Slot : int { kI0, kI1, kI2, kV0, kV1, kV2, kV3, kV4, kV5 };

struct FieldSpec {
  const char* name;
  Slot slot;
};

struct KindSpec {
  const char* name;
  bool has_job, has_coflow, has_flow;
  std::vector<FieldSpec> fields;
};

const KindSpec& kind_spec(TraceEventKind kind) {
  static const std::vector<KindSpec> specs = {
      /* kJobArrival */ {"job_arrival", true, false, false, {{"stages", kI0}}},
      /* kCoflowRelease */
      {"coflow_release", true, true, false, {{"stage", kI0}, {"width", kI1}}},
      /* kFlowRelease */
      {"flow_release",
       true,
       true,
       true,
       {{"src", kI0}, {"dst", kI1}, {"size", kV0}}},
      /* kFlowRateChange */
      {"flow_rate_change",
       true,
       true,
       true,
       {{"old_rate", kV0}, {"new_rate", kV1}}},
      /* kFlowFinish */ {"flow_finish", true, true, true, {{"size", kV0}}},
      /* kCoflowFinish */
      {"coflow_finish", true, true, false, {{"stage", kI0}, {"release", kV0}}},
      /* kStageComplete */
      {"stage_complete", true, false, false, {{"stage", kI0}}},
      /* kJobFinish */ {"job_finish", true, false, false, {{"arrival", kV0}}},
      /* kQueueChange */
      {"queue_change",
       true,
       true,
       false,
       {{"old", kI0},
        {"new", kI1},
        {"cause", kI2},
        {"omega", kV0},
        {"epsilon", kV1},
        {"ell_max", kV2},
        {"n", kV3},
        {"cp_discount", kV4},
        {"psi", kV5}}},
      /* kStarvationWeights */
      {"starvation_weights",
       false,
       false,
       false,
       {{"queues", kI0}, {"w0", kV0}, {"w1", kV1}, {"w2", kV2}, {"w3", kV3}}},
      /* kCapacityChange: reserved, no longer emitted */
      {"capacity_change", false, false, false, {{"link", kI0}, {"capacity", kV0}}},
      /* kHeavyMark */ {"heavy_mark", true, false, false, {{"bytes", kV0}}},
      /* kFault */
      {"fault",
       false,
       false,
       false,
       {{"fault_kind", kI0}, {"host", kI1}, {"link", kI2}, {"factor", kV0}}},
      /* kFlowAbort */
      {"flow_abort",
       true,
       true,
       true,
       {{"lost", kV0}, {"attempt", kI0}, {"cause", kI1}}},
      /* kFlowRetry */
      {"flow_retry",
       true,
       true,
       true,
       {{"attempt", kI0}, {"latency", kV0}}},
      /* kJobFail */
      {"job_fail",
       true,
       false,
       false,
       {{"cancelled_coflows", kI0},
        {"cancelled_running", kI1},
        {"cancelled_parked", kI2},
        {"arrival", kV0}}},
      /* kSample */
      {"sample",
       false,
       false,
       false,
       {{"active_flows", kI0},
        {"active_coflows", kI1},
        {"active_jobs", kI2},
        {"events", kV0},
        {"events_per_sec", kV1},
        {"calendar", kV2},
        {"flow_touches", kV3},
        {"rate_recomputations", kV4},
        {"trace_records", kV5}}},
      /* kMemSample */
      {"mem_sample",
       false,
       false,
       false,
       {{"state_bytes", kV0},
        {"calendar_bytes", kV1},
        {"retry_bytes", kV2},
        {"trace_bytes", kV3},
        {"active_set_bytes", kV4},
        {"total_bytes", kV5}}},
      /* kWallSample */
      {"wall_sample",
       false,
       false,
       false,
       {{"wall_ms", kV0}, {"events", kV1}, {"events_per_wall_sec", kV2}}},
      /* kAdmit */
      {"admit",
       true,
       true,
       false,
       {{"arrival", kV0}, {"queue_wait", kV1}, {"queue_depth", kI0}}},
      /* kShed */
      {"shed",
       true,
       false,
       false,
       {{"policy", kI0},
        {"reason", kI1},
        {"queue_depth", kI2},
        {"bytes", kV0},
        {"arrival", kV1}}},
      /* kDrainStart */
      {"drain_start",
       false,
       false,
       false,
       {{"cause", kI0}, {"queued", kI1}}},
      /* kCompact */
      {"compact",
       false,
       false,
       false,
       {{"jobs_evicted", kI0},
        {"coflows_evicted", kI1},
        {"flows_evicted", kI2},
        {"jobs_live", kV0}}},
      /* kDegrade: reserved, no longer emitted */
      {"degrade",
       false,
       false,
       false,
       {{"entered", kI0}, {"queue_depth", kI1}}},
  };
  const auto index = static_cast<std::size_t>(kind);
  GURITA_CHECK_MSG(index < specs.size(), "unknown trace event kind");
  return specs[index];
}

double get_slot(const TraceRecord& r, Slot slot) {
  switch (slot) {
    case kI0: return r.i0;
    case kI1: return r.i1;
    case kI2: return r.i2;
    case kV0: return r.v0;
    case kV1: return r.v1;
    case kV2: return r.v2;
    case kV3: return r.v3;
    case kV4: return r.v4;
    case kV5: return r.v5;
  }
  return 0;
}

void set_slot(TraceRecord& r, Slot slot, double value) {
  switch (slot) {
    case kI0: r.i0 = static_cast<std::int32_t>(value); break;
    case kI1: r.i1 = static_cast<std::int32_t>(value); break;
    case kI2: r.i2 = static_cast<std::int32_t>(value); break;
    case kV0: r.v0 = value; break;
    case kV1: r.v1 = value; break;
    case kV2: r.v2 = value; break;
    case kV3: r.v3 = value; break;
    case kV4: r.v4 = value; break;
    case kV5: r.v5 = value; break;
  }
}

bool slot_is_int(Slot slot) { return slot == kI0 || slot == kI1 || slot == kI2; }

/// %.17g: shortest representation that round-trips a double bit-exactly
/// through strtod, and deterministic for a given bit pattern — the
/// byte-identity half of the trace determinism contract rides on this.
void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

}  // namespace

const char* kind_name(TraceEventKind kind) { return kind_spec(kind).name; }

TraceEventKind kind_from_name(const std::string& name) {
  for (int k = 0; k < kNumTraceEventKinds; ++k) {
    const auto kind = static_cast<TraceEventKind>(k);
    if (name == kind_spec(kind).name) return kind;
  }
  GURITA_CHECK_MSG(false, "unknown trace event kind: " + name);
  return TraceEventKind::kJobArrival;  // unreachable
}

std::uint32_t parse_trace_filter(const std::string& csv) {
  if (csv == "all") return TraceRecorder::kAllKinds;
  if (csv == "default") return TraceRecorder::kDefaultKinds;
  std::uint32_t mask = 0;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    const std::string item = csv.substr(start, end - start);
    GURITA_CHECK_MSG(!item.empty(), "empty entry in trace filter: " + csv);
    mask |= mask_of(kind_from_name(item));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  GURITA_CHECK_MSG(mask != 0, "trace filter selects no kinds: " + csv);
  return mask;
}

void write_jsonl(std::ostream& out, const std::vector<TraceRecord>& records,
                 const std::string& source) {
  std::string line;
  for (const TraceRecord& r : records) {
    const KindSpec& spec = kind_spec(r.kind);
    line.clear();
    line += "{\"t\":";
    append_double(line, r.time);
    line += ",\"kind\":\"";
    line += spec.name;
    line += '"';
    if (!source.empty()) {
      line += ",\"section\":\"";
      append_escaped(line, source);
      line += '"';
    }
    char buf[32];
    if (spec.has_job && r.job != kNoTraceId) {
      std::snprintf(buf, sizeof(buf), ",\"job\":%" PRIu64, r.job);
      line += buf;
    }
    if (spec.has_coflow && r.coflow != kNoTraceId) {
      std::snprintf(buf, sizeof(buf), ",\"coflow\":%" PRIu64, r.coflow);
      line += buf;
    }
    if (spec.has_flow && r.flow != kNoTraceId) {
      std::snprintf(buf, sizeof(buf), ",\"flow\":%" PRIu64, r.flow);
      line += buf;
    }
    for (const FieldSpec& f : spec.fields) {
      line += ",\"";
      line += f.name;
      line += "\":";
      if (slot_is_int(f.slot)) {
        std::snprintf(buf, sizeof(buf), "%d",
                      static_cast<int>(get_slot(r, f.slot)));
        line += buf;
      } else {
        append_double(line, get_slot(r, f.slot));
      }
    }
    line += "}\n";
    out << line;
  }
}

namespace {

/// Minimal parser for the flat JSON objects write_jsonl produces: string
/// and number values only, no nesting. Not a general JSON parser.
struct JsonLine {
  std::vector<std::pair<std::string, std::string>> pairs;  ///< raw values
};

JsonLine parse_flat_json(const std::string& line) {
  JsonLine out;
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  };
  const auto expect = [&](char c) {
    GURITA_CHECK_MSG(i < line.size() && line[i] == c,
                     "malformed trace JSONL near position " +
                         std::to_string(i) + ": " + line);
    ++i;
  };
  const auto parse_string = [&]() -> std::string {
    expect('"');
    std::string s;
    while (i < line.size() && line[i] != '"') {
      if (line[i] == '\\' && i + 1 < line.size()) ++i;
      s += line[i++];
    }
    expect('"');
    return s;
  };
  skip_ws();
  expect('{');
  skip_ws();
  while (i < line.size() && line[i] != '}') {
    const std::string key = parse_string();
    skip_ws();
    expect(':');
    skip_ws();
    std::string value;
    if (line[i] == '"') {
      value = parse_string();
    } else {
      while (i < line.size() && line[i] != ',' && line[i] != '}')
        value += line[i++];
    }
    out.pairs.emplace_back(key, value);
    skip_ws();
    if (i < line.size() && line[i] == ',') {
      ++i;
      skip_ws();
    }
  }
  expect('}');
  return out;
}

}  // namespace

std::vector<TraceSection> read_jsonl(std::istream& in) {
  std::vector<TraceSection> sections;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const JsonLine parsed = parse_flat_json(line);
    TraceRecord r;
    std::string src;
    bool have_kind = false;
    for (const auto& [key, value] : parsed.pairs) {
      if (key == "kind") {
        r.kind = kind_from_name(value);
        have_kind = true;
      } else if (key == "section") {
        src = value;
      }
    }
    GURITA_CHECK_MSG(have_kind, "trace line without kind: " + line);
    const KindSpec& spec = kind_spec(r.kind);
    for (const auto& [key, value] : parsed.pairs) {
      if (key == "kind" || key == "section") continue;
      if (key == "t") {
        r.time = std::strtod(value.c_str(), nullptr);
      } else if (key == "job") {
        r.job = std::strtoull(value.c_str(), nullptr, 10);
      } else if (key == "coflow") {
        r.coflow = std::strtoull(value.c_str(), nullptr, 10);
      } else if (key == "flow") {
        r.flow = std::strtoull(value.c_str(), nullptr, 10);
      } else {
        bool known = false;
        for (const FieldSpec& f : spec.fields) {
          if (key == f.name) {
            set_slot(r, f.slot, std::strtod(value.c_str(), nullptr));
            known = true;
            break;
          }
        }
        GURITA_CHECK_MSG(known, "unknown field \"" + key + "\" for kind " +
                                    spec.name + ": " + line);
      }
    }
    if (sections.empty() || sections.back().label != src)
      sections.push_back(TraceSection{src, {}});
    sections.back().records.push_back(r);
  }
  return sections;
}

namespace {

constexpr std::uint32_t kBinaryMagic = 0x53424F47u;  // "GOBS" little-endian
constexpr std::uint32_t kBinaryVersion = 1;

template <typename T>
void put(std::ostream& out, T v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
bool get(std::istream& in, T& v) {
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  return static_cast<bool>(in);
}

}  // namespace

void write_binary_header(std::ostream& out) {
  put(out, kBinaryMagic);
  put(out, kBinaryVersion);
}

void write_binary_section(std::ostream& out, const std::string& label,
                          const std::vector<TraceRecord>& records) {
  put(out, static_cast<std::uint32_t>(label.size()));
  out.write(label.data(), static_cast<std::streamsize>(label.size()));
  put(out, static_cast<std::uint64_t>(records.size()));
  for (const TraceRecord& r : records) {
    // Field-by-field dump: no struct padding bytes reach the stream.
    put(out, r.time);
    put(out, r.job);
    put(out, r.coflow);
    put(out, r.flow);
    put(out, r.v0);
    put(out, r.v1);
    put(out, r.v2);
    put(out, r.v3);
    put(out, r.v4);
    put(out, r.v5);
    put(out, r.i0);
    put(out, r.i1);
    put(out, r.i2);
    put(out, static_cast<std::uint8_t>(r.kind));
  }
}

std::vector<TraceSection> read_binary(std::istream& in) {
  std::uint32_t magic = 0, version = 0;
  GURITA_CHECK_MSG(get(in, magic) && magic == kBinaryMagic,
                   "not a gurita binary trace (bad magic)");
  GURITA_CHECK_MSG(get(in, version) && version == kBinaryVersion,
                   "unsupported binary trace version");
  std::vector<TraceSection> sections;
  std::uint32_t label_len = 0;
  while (get(in, label_len)) {
    TraceSection section;
    section.label.resize(label_len);
    in.read(section.label.data(), static_cast<std::streamsize>(label_len));
    std::uint64_t count = 0;
    GURITA_CHECK_MSG(static_cast<bool>(in) && get(in, count),
                     "truncated binary trace section header");
    section.records.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      TraceRecord r;
      std::uint8_t kind = 0;
      const bool ok = get(in, r.time) && get(in, r.job) && get(in, r.coflow) &&
                      get(in, r.flow) && get(in, r.v0) && get(in, r.v1) &&
                      get(in, r.v2) && get(in, r.v3) && get(in, r.v4) &&
                      get(in, r.v5) && get(in, r.i0) && get(in, r.i1) &&
                      get(in, r.i2) && get(in, kind);
      GURITA_CHECK_MSG(ok, "truncated binary trace record");
      GURITA_CHECK_MSG(kind < kNumTraceEventKinds,
                       "binary trace record with unknown kind");
      r.kind = static_cast<TraceEventKind>(kind);
      section.records.push_back(r);
    }
    sections.push_back(std::move(section));
  }
  return sections;
}

void export_trace_counters(const std::vector<TraceRecord>& records,
                           std::uint64_t dropped, Registry& registry) {
  for (const TraceRecord& r : records)
    registry.add(std::string("trace.") + kind_name(r.kind));
  if (dropped > 0) registry.add("trace.dropped", dropped);
}

}  // namespace gurita::obs
