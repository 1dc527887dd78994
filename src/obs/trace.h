// Structured simulation trace recorder.
//
// The paper's evaluation (Figs. 5–8) rests on *why* LBEF ranks one job's Ψ̈
// below another's and on which priority queue each coflow occupies over
// time. This module records exactly those decisions as typed records — flow
// release / rate-change / finish, coflow queue transitions with the Ψ̈
// factor breakdown (ω̈, ε̈, ℓ̈_max, n̈ and the critical-path discount) that
// produced them, DAG stage releases, WRR starvation weights, faults —
// into a preallocated append buffer, exported as JSONL
// (examples/trace_explorer and scripts/validate_trace.py read it back).
//
// Cost contract (DESIGN.md §10): when no recorder is attached the engine's
// only overhead is one pointer null-check per emission site; when a
// recorder is attached but the record's kind is filtered out, the overhead
// is the header-inlined `wants()` bit test — no record is built and nothing
// allocates. Enabled emission appends to a vector reserved in chunks, so
// the amortized hot-path cost is a bounds check and a memcpy.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/units.h"

namespace gurita::obs {

/// Kind of one trace record. The underlying values are part of the
/// snapshot format (snapshot.h): renumbering them bumps kFormatVersion.
enum class TraceEventKind : std::uint8_t {
  kJobArrival = 0,        ///< job submitted its first coflows
  kCoflowRelease = 1,     ///< DAG dependencies met; the coflow's flows start
  kFlowRelease = 2,       ///< one flow entered the active set
  kFlowRateChange = 3,    ///< the allocator moved a flow's rate
  kFlowFinish = 4,        ///< a flow drained
  kCoflowFinish = 5,      ///< all flows of a coflow drained
  kStageComplete = 6,     ///< a job's completed-stage count advanced
  kJobFinish = 7,         ///< all coflows of a job drained
  kQueueChange = 8,       ///< scheduler moved a coflow between priority queues
  kStarvationWeights = 9, ///< WRR weights emulating SPQ (starvation mitigation)
  kHeavyMark = 10,        ///< FIFO-LM (Baraat) reclassified a job as heavy
  kFault = 11,            ///< a fault-plan event fired (fault/fault.h)
  kFlowAbort = 12,        ///< a fault aborted a flow; in-flight bytes lost
  kFlowRetry = 13,        ///< an aborted flow restarted from byte zero
  kJobFail = 14,          ///< a job exhausted retries and was abandoned
  kSample = 15,           ///< periodic run-health sample (obs/sampler.h)
  kMemSample = 16,        ///< periodic per-subsystem memory sample
  // --- open-horizon service records (src/service/, DESIGN.md §15) ---
  kAdmit = 17,            ///< daemon admitted a streamed job into the engine
  kShed = 18,             ///< admission control dropped a job (load shedding)
  kDrainStart = 19,       ///< drain began: admissions stopped
  kCompact = 20,          ///< engine evicted terminal state (compact())
};

inline constexpr int kNumTraceEventKinds = 21;

/// Why a scheduler changed a coflow's queue (TraceRecord::i2 of
/// kQueueChange records).
enum class QueueChangeCause : std::int32_t {
  kRelease = 0,     ///< initial highest-priority assignment at release
  kHrDecision = 1,  ///< Gurita head-receiver δ-round demotion (LBEF)
  kSelfDemote = 2,  ///< Gurita receiver-local threshold demotion
  kBytesSent = 3,   ///< Aalo D-CLAS bytes-sent demotion
  kRecompute = 4,   ///< GuritaPlus clairvoyant re-evaluation (both ways)
  kFaultReset = 5,  ///< scheduler-state loss re-admitted it at the top queue
};

/// Factor fields of a kQueueChange record, in slot order v0..v5. All zero
/// when the change carries no decision signal (release, fault reset).
struct QueueChangeFactors {
  double omega = 0;        ///< v0: ω̈
  double epsilon = 0;      ///< v1: ε̈
  double ell_max = 0;      ///< v2: ℓ̈_max (bytes)
  double width = 0;        ///< v3: n̈
  double cp_discount = 0;  ///< v4: applied critical-path discount
  double psi = 0;          ///< v5: thresholded Ψ̈ (Aalo: bytes sent)
};

/// Sentinel for "no entity" in a record's id fields.
inline constexpr std::uint64_t kNoTraceId = ~0ULL;

/// One typed trace record. Fixed-size POD so the recorder buffer is a flat
/// array and a snapshot stores it as a plain field dump. Field meaning is
/// kind-specific (see the JSONL field table in trace.cpp); unused fields
/// keep their defaults so serialization is deterministic.
struct TraceRecord {
  Time time = 0;
  std::uint64_t job = kNoTraceId;
  std::uint64_t coflow = kNoTraceId;
  std::uint64_t flow = kNoTraceId;
  /// Kind-specific scalars (kQueueChange: see queue_change_record).
  double v0 = 0, v1 = 0, v2 = 0, v3 = 0, v4 = 0, v5 = 0;
  /// Kind-specific small integers (kQueueChange: old queue, new queue,
  /// QueueChangeCause).
  std::int32_t i0 = -1, i1 = -1, i2 = -1;
  TraceEventKind kind = TraceEventKind::kJobArrival;

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

/// The one builder of kQueueChange records, and so the one statement of
/// their layout: v0..v5 = `factors` in field order, i0 = `from` (the old
/// queue; -1 at release and after a fault reset), i1 = `to` (the new
/// queue), i2 = `cause`. Emission sites call it only after
/// `wants(kQueueChange)`, so an untraced run builds no record.
[[nodiscard]] TraceRecord queue_change_record(
    Time time, JobId job, CoflowId coflow, int from, int to,
    QueueChangeCause cause, const QueueChangeFactors& factors = {});

/// Printable name of a record kind ("queue_change", "flow_finish", ...).
[[nodiscard]] const char* kind_name(TraceEventKind kind);
/// Inverse of kind_name; throws std::logic_error on an unknown name.
[[nodiscard]] TraceEventKind kind_from_name(const std::string& name);

/// Bitmask helpers for kind filtering.
[[nodiscard]] constexpr std::uint32_t mask_of(TraceEventKind kind) {
  return 1u << static_cast<unsigned>(kind);
}

/// Parses a --trace-filter value: a comma-separated list of kind names, or
/// "all" / "default". Throws std::logic_error on an unknown kind name.
[[nodiscard]] std::uint32_t parse_trace_filter(const std::string& csv);

/// Append-buffer of trace records with a kind filter.
class TraceRecorder {
 public:
  /// Every kind.
  static constexpr std::uint32_t kAllKinds =
      (1u << kNumTraceEventKinds) - 1u;
  /// Every kind except the two per-recomputation firehoses (flow rate
  /// changes and WRR weight snapshots), which dominate trace volume without
  /// carrying scheduling decisions, and the periodic sampler kinds, which
  /// only fire when an IntervalSampler is attached (--timeline opts into
  /// their mask bits). Opt in via --trace-filter.
  static constexpr std::uint32_t kDefaultKinds =
      kAllKinds & ~mask_of(TraceEventKind::kFlowRateChange) &
      ~mask_of(TraceEventKind::kStarvationWeights) &
      ~mask_of(TraceEventKind::kSample) &
      ~mask_of(TraceEventKind::kMemSample);
  /// The sim-time-driven sampler kinds (deterministic; fingerprinted like
  /// any other trace record).
  static constexpr std::uint32_t kTimelineKinds =
      mask_of(TraceEventKind::kSample) | mask_of(TraceEventKind::kMemSample);

  explicit TraceRecorder(std::uint32_t mask = kDefaultKinds) : mask_(mask) {
    records_.reserve(kInitialReserve);
  }

  /// True when records of `kind` are being kept. Inline so emission sites
  /// compile to a bit test.
  [[nodiscard]] bool wants(TraceEventKind kind) const {
    return (mask_ & mask_of(kind)) != 0;
  }

  /// Appends `record` if its kind passes the filter.
  void emit(const TraceRecord& record) {
    if (wants(record.kind)) records_.push_back(record);
  }

  [[nodiscard]] const std::vector<TraceRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::uint32_t mask() const { return mask_; }

  /// Moves the buffer out (the recorder is empty afterwards).
  [[nodiscard]] std::vector<TraceRecord> take() {
    std::vector<TraceRecord> out = std::move(records_);
    records_.clear();
    return out;
  }

  /// Refills the buffer from a checkpoint (snapshot/, DESIGN.md §12):
  /// subsequent emissions append after the restored prefix, so a resumed
  /// run's export is a seamless continuation of the original's. The mask
  /// is construction-time config and must match the checkpointed run's
  /// (the snapshot fingerprint enforces it).
  void restore(std::vector<TraceRecord> records) {
    records_ = std::move(records);
  }

 private:
  static constexpr std::size_t kInitialReserve = 1 << 12;
  std::uint32_t mask_;
  std::vector<TraceRecord> records_;
};

/// A labeled run of records, as read back from an exported trace.
struct TraceSection {
  std::string label;
  std::vector<TraceRecord> records;
};

/// Writes one JSON object per record, one per line, with kind-specific
/// field names (the same table read_jsonl parses). `source`, when
/// non-empty, is emitted as a "section" field on every line so multi-run
/// exports stay attributable ("src" is taken: it is flow_release's source
/// host). Doubles go through append_number (common/json.h), so equal
/// records serialize to byte-identical lines.
void write_jsonl(std::ostream& out, const std::vector<TraceRecord>& records,
                 const std::string& source = "");

/// Reads a JSONL trace written by write_jsonl, grouping consecutive lines
/// by their "section" field. Each line goes through the one JSON reader
/// (common/json.h): ids read exactly as u64, and a malformed line, unknown
/// field or out-of-range value throws JsonError naming the line.
[[nodiscard]] std::vector<TraceSection> read_jsonl(std::istream& in);

class Registry;
/// Folds per-kind record counts ("trace.<kind>") into `registry`.
void export_trace_counters(const std::vector<TraceRecord>& records,
                           Registry& registry);

}  // namespace gurita::obs
