#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <istream>
#include <ostream>

#include "common/json.h"
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

void set_slot(TraceRecord& r, Slot slot, const JsonValue& value) {
  switch (slot) {
    case kI0: r.i0 = value.as_int(); break;
    case kI1: r.i1 = value.as_int(); break;
    case kI2: r.i2 = value.as_int(); break;
    case kV0: r.v0 = value.as_double(); break;
    case kV1: r.v1 = value.as_double(); break;
    case kV2: r.v2 = value.as_double(); break;
    case kV3: r.v3 = value.as_double(); break;
    case kV4: r.v4 = value.as_double(); break;
    case kV5: r.v5 = value.as_double(); break;
  }
}

bool slot_is_int(Slot slot) { return slot == kI0 || slot == kI1 || slot == kI2; }

}  // namespace

TraceRecord queue_change_record(Time time, JobId job, CoflowId coflow,
                                int from, int to, QueueChangeCause cause,
                                const QueueChangeFactors& f) {
  return {.time = time, .job = job.value(), .coflow = coflow.value(),
          .v0 = f.omega, .v1 = f.epsilon, .v2 = f.ell_max, .v3 = f.width,
          .v4 = f.cp_discount, .v5 = f.psi,
          .i0 = from, .i1 = to, .i2 = static_cast<std::int32_t>(cause),
          .kind = TraceEventKind::kQueueChange};
}

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
    append_number(line, r.time);
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
        append_number(line, get_slot(r, f.slot));
      }
    }
    line += "}\n";
    out << line;
  }
}

std::vector<TraceSection> read_jsonl(std::istream& in) {
  std::vector<TraceSection> sections;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    TraceRecord r;
    std::string label;
    try {
      const JsonValue root = parse_json(line);
      r.kind = kind_from_name(root.at("kind").string());
      const KindSpec& spec = kind_spec(r.kind);
      for (const auto& member : root.members) {
        const std::string& key = member.first;
        const JsonValue& value = member.second;
        if (key == "kind") continue;
        if (key == "section") {
          label = value.string();
        } else if (key == "t") {
          r.time = value.as_double();
        } else if (key == "job") {
          r.job = value.as_u64();
        } else if (key == "coflow") {
          r.coflow = value.as_u64();
        } else if (key == "flow") {
          r.flow = value.as_u64();
        } else {
          const auto field =
              std::find_if(spec.fields.begin(), spec.fields.end(),
                           [&](const FieldSpec& f) { return key == f.name; });
          if (field == spec.fields.end())
            throw JsonError("unknown field \"" + key + "\" for kind " +
                            spec.name);
          set_slot(r, field->slot, value);
        }
      }
    } catch (const std::logic_error& e) {
      throw JsonError("trace line " + std::to_string(lineno) + ": " +
                      e.what());
    }
    if (sections.empty() || sections.back().label != label)
      sections.push_back(TraceSection{label, {}});
    sections.back().records.push_back(r);
  }
  return sections;
}

void export_trace_counters(const std::vector<TraceRecord>& records,
                           Registry& registry) {
  for (const TraceRecord& r : records)
    registry.add(std::string("trace.") + kind_name(r.kind));
}

}  // namespace gurita::obs
