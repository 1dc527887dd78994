// Deterministic checkpoint/restore subsystem (DESIGN.md §12).
//
// A snapshot captures the dynamic state of a paused simulation that restore
// cannot rebuild from its inputs and its flow store — event calendar (its
// live entries in heap order), per-coflow byte aggregates, flow progress,
// parked/retry fault state, fault-plan cursor, partial result counters,
// the trace recorder's buffer and the scheduler's policy state — at a
// run_to() pause, such that
//
//     run_to(T); checkpoint; [new process] restore; run()
//
// is byte-identical (JCTs, counters, traces, exports) to an uninterrupted
// run(). Static structure (topology, job specs, routes, sorted fault plan)
// is NOT serialized: the restoring side reconstructs the simulator from the
// same inputs, and a fingerprint embedded in the snapshot rejects
// mismatched inputs with SnapshotError.
//
// Format: `u32 magic, u32 version, u8 payload kind`, then length-prefixed
// sections of codec.h primitives. Versioning rule: bump kFormatVersion on
// any layout change — snapshots are short-lived resume artifacts, not an
// archival format, so no cross-version migration is attempted (a reader
// refuses old versions instead of guessing). Within a version, writers may
// append fields at the *end* of a section; readers skip unknown trailing
// bytes via Reader::skip_to.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "flowsim/simulator.h"
#include "snapshot/codec.h"

namespace gurita::snapshot {

/// "GSNP" little-endian.
inline constexpr std::uint32_t kMagic = 0x504e5347u;
/// v2: added the interval-sampler fingerprint fields and cursor section.
/// v3: flow routes are serialized verbatim (compaction renumbers flow ids,
/// so routes are no longer a pure function of the id), the engine section
/// carries the horizon-pause carry flags, and the kServiceState payload
/// wraps a simulator snapshot with daemon state (DESIGN.md §15).
/// v4: dropped the pre-calendar full-scan touch estimate from the engine
/// and results sections, and its dirty-entry pause flag from the engine
/// section; the engine no longer computes it.
/// v5: the calendar holds one entry per flow (f64 key, u64 flow id), live
/// entries only; the per-flow generation vector and the entries'
/// generation stamps are gone. Restore validates every calendar entry.
/// v6: the retry queue is a flow calendar written like the completion
/// calendar, with no outstanding counter; restore validates the parked and
/// retry ids. The link-stats flag, the engine's per-link byte counters and
/// the results cache's link bytes are gone.
/// v7: the TCP-ramp fingerprint fields, the disruption hash and the engine's
/// ramp carry flag and disruption cursor are gone; restore validates the
/// flow store's job, coflow, host and link ids, the coflow flow lists and
/// the active set.
/// v8: the service-state payload drops the shed policy, the p99-wait
/// watermarks and the wait-window size from its config section, and the
/// degrade flag, the degrade-spell count and each job's first engine coflow
/// id (rebuilt from the restored engine) from its dynamic section.
/// v9: the feed fingerprint in a feed-sourced service-state payload seeds
/// FNV-1a with the true offset basis (it was a digit short); the layout is
/// unchanged.
/// v10: the fingerprint drops the sampler's memory and wall switches (two
/// bools) and the trace section drops its dropped-record count (one u64).
/// v11: the flow record drops its tier and weight (an i64 and an f64); no
/// coflow priority is written either, since the next assign() rewrites
/// every live one. Restore checks open connections against the active set.
/// v12: Aalo's scheduler section drops its FIFO-rank table and rank counter
/// (the intra-queue FIFO option is gone); it holds the queue table only.
/// v13: trace kinds renumber (the three kinds no writer emitted are gone;
/// the 21 kinds left are 0..20, and the trace section refuses a kind byte
/// of 21 or more); Gurita's head-receiver entries drop their
/// update time and each observation its bytes-received aggregate (two
/// f64s).
/// v14: a snapshot holds only what restore cannot rebuild from its inputs
/// and its flow store. The engine section drops the iteration count (the
/// live-lock guard reads the event count), each flow's endpoints, size and
/// start time, each coflow's flow list, unfinished-flow and dependency
/// counters, each job's remaining-coflow and completed-stage counters and
/// each aggregate's open connections; restore derives them in one pass
/// over the flow store. GuritaPlus' section drops its critical-path flags
/// (recomputed from the job spec on demand).
inline constexpr std::uint32_t kFormatVersion = 14;

/// Payload kind byte following the header. Value 2 is reserved: it marked
/// the retired results cache of a finished batch shard, and read_header
/// refuses it. A finished shard resumes from its final kSimulatorState
/// checkpoint instead (exp/experiment.h).
enum class PayloadKind : std::uint8_t {
  kSimulatorState = 1,  ///< Simulator::checkpoint / Simulator::restore
  kServiceState = 3,    ///< service daemon auto-checkpoint (service/daemon.h)
};

/// Thrown by the experiment runner when --checkpoint-halt-after stops a run
/// on purpose after writing N snapshots (crash simulation for resume
/// testing). Distinct from SnapshotError so drivers can exit with a
/// "halted, resume me" status instead of reporting corruption.
class HaltedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Writes the standard snapshot header.
void write_header(Writer& w, PayloadKind kind);
/// Verifies magic/version and returns the payload kind; throws
/// SnapshotError on a mismatch.
[[nodiscard]] PayloadKind read_header(Reader& r);

/// Serializes one trace record field-by-field (the simulator checkpoint's
/// trace section): f64 time, three u64 ids, six f64 values, three i32 and
/// the u8 kind.
void write_trace_record(Writer& w, const obs::TraceRecord& record);
inline constexpr std::size_t kTraceRecordBytes = 8 + 3 * 8 + 6 * 8 + 3 * 4 + 1;
[[nodiscard]] obs::TraceRecord read_trace_record(Reader& r);

/// Serializes one JobSpec field-by-field. The kServiceState payload embeds
/// the daemon's in-sim and queued job specs — unlike batch restore, an
/// open-horizon resume cannot reconstruct the admitted population from the
/// original inputs (it grew at runtime).
void write_job_spec(Writer& w, const JobSpec& spec);
/// The smallest encoded job spec: f64 arrival, f64 deadline and the two
/// u64 counts (coflows, deps), both zero.
inline constexpr std::size_t kMinJobSpecBytes = 4 * 8;
[[nodiscard]] JobSpec read_job_spec(Reader& r);

/// Serializes one result record field-by-field (the service daemon's
/// ledger of evicted results): a job as u64 id, f64 arrival,
/// finish and total bytes, i32 stages and the failed flag; a coflow as u64
/// id and job, i32 stage, f64 release, finish and total bytes and the
/// failed flag.
void write_job_result(Writer& w, const SimResults::JobResult& job);
inline constexpr std::size_t kJobResultBytes = 8 + 3 * 8 + 4 + 1;
[[nodiscard]] SimResults::JobResult read_job_result(Reader& r);
void write_coflow_result(Writer& w, const SimResults::CoflowResult& coflow);
inline constexpr std::size_t kCoflowResultBytes = 2 * 8 + 4 + 3 * 8 + 1;
[[nodiscard]] SimResults::CoflowResult read_coflow_result(Reader& r);

/// Atomically writes `payload` (a Writer buffer) to `path` via
/// `<path>.tmp` + rename, so a crash mid-checkpoint never leaves a
/// truncated snapshot for the resume path to trip over.
void write_snapshot_file(const std::string& path, const std::string& payload);
/// Reads a file written by write_snapshot_file; throws SnapshotError if it
/// cannot be opened.
[[nodiscard]] std::string read_snapshot_file(const std::string& path);

}  // namespace gurita::snapshot
