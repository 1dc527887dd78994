// Head-receiver (HR) coordination state (§IV.B "Priority decision").
//
// Each job designates its first-invoked receiver as head receiver. Peer
// receivers report locally observed flow information — bytes received per
// flow and the number of open connections — every δ seconds; the HR
// aggregates them into per-coflow observations, estimates Ψ̈, and decides
// the job's per-stage priority queue.
//
// This module holds the *observation cache*: everything the HR knew as of
// the last δ update. The Gurita scheduler reads only this cache between
// ticks, which is what makes the scheme decentralized in the simulation —
// decisions are made on stale, receiver-local information, never on the
// engine's instantaneous global state.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "flowsim/state.h"
#include "snapshot/codec.h"

namespace gurita {

/// What the HR knows about one active coflow after an update round.
struct CoflowObservation {
  int stage = 1;
  double open_connections = 0;   ///< n̈: flows still transmitting
  Bytes ell_max_observed = 0;    ///< ℓ̈_max: largest per-flow bytes received
  Bytes ell_avg_observed = 0;    ///< ℓ̈_avg: mean per-flow bytes received
};

/// Per-job HR cache, refreshed on ticks by the Gurita scheduler.
class HeadReceiver {
 public:
  explicit HeadReceiver(JobId job) : job_(job) {}

  [[nodiscard]] JobId job() const { return job_; }

  /// Gathers receiver-side observations for every released, unfinished
  /// coflow of the job, as of the state's clock.
  void update(const SimState& state);

  /// Ordered by coflow id: decide_priorities() folds these observations into
  /// per-stage Ψ̈ sums, and floating-point addition order is part of the
  /// byte-identical determinism contract — an ordered map makes the fold
  /// order a pure function of logical state (a restored HR iterates exactly
  /// like the original; a rehashed hash map would not).
  [[nodiscard]] const std::map<CoflowId, CoflowObservation>& observations()
      const {
    return observations_;
  }

  /// Completed-stage count as of the last update (from the job master,
  /// which receivers learn through the coflow registration API).
  [[nodiscard]] int completed_stages() const { return completed_stages_; }

  /// Checkpoint hooks (DESIGN.md §12): the full δ-stale observation cache
  /// travels with the snapshot so a restored run makes identical decisions
  /// until its next HR round. Restore rejects an observation keyed at or
  /// above `n_coflows`, the engine's coflow count.
  void save_state(snapshot::Writer& w) const;
  void load_state(snapshot::Reader& r, std::uint64_t n_coflows);

  /// Compaction support (DESIGN.md §15): adopts the renumbered job id and a
  /// re-keyed observation cache built by GuritaScheduler::on_compact.
  /// The completed-stage count is id-free and stays put.
  void rekey(JobId job, std::map<CoflowId, CoflowObservation> observations) {
    job_ = job;
    observations_ = std::move(observations);
  }

 private:
  JobId job_;
  int completed_stages_ = 0;
  std::map<CoflowId, CoflowObservation> observations_;
};

}  // namespace gurita
