// Offline lower bounds on average JCT for completed runs (ROADMAP: what the
// "near optimal" gap is made of).
//
// The single-machine DP (core/optimal.h) certifies "near optimal" only in
// the FFS-MJ collapse; the fabric runs of bench_fig5..7 had no yardstick.
// This module computes two *sound* lower bounds on the average JCT any
// scheduler could have achieved on a given workload, from the static job
// specs alone (no simulation):
//
//  (a) Port-load bound. A coflow cannot finish faster than its most loaded
//      host port — max over ingress/egress NICs of (bytes through the port)
//      divided by the port capacity (the "effective bottleneck" of
//      Varys/Aalo analyses, valid on the big-switch relaxation of any
//      fabric: real topologies only add contention). Chained through the
//      job DAG as a critical path — a coflow starts only after its
//      dependencies complete — this gives a per-job bound on JCT that is
//      release-time aware by construction (JCT is measured from arrival).
//
//  (b) Ordering bound. Cross-job contention: all bytes a set of jobs push
//      through one port must share that port's capacity. Relaxing
//      everything except one port leaves the single-machine preemptive
//      release-date problem 1|r_j, pmtn|sum C_j, solved exactly by SRPT
//      (equivalently: the base case of the Queyranne/Shafiee–Ghaderi
//      permutation LP, whose single-port relaxation is exact). The sum of
//      job flow times at the SRPT optimum of port p lower-bounds the sum of
//      the real JCTs of the jobs using p; jobs not using p contribute their
//      per-job bound (a). The bound takes the max over ports.
//
// Both bounds survive restriction to any job subset (serving fewer jobs is
// a relaxation), which yields per-category and per-class bounds, and both
// assume *nominal* port capacity. That is sound because the engine never
// raises a capacity above nominal: the fault plan is its only source of
// capacity changes, and there kLinkDown sets a link to 0, kLinkUp restores
// the value saved at the matching kLinkDown, and straggler windows scale
// rates by a factor validated to lie in (0, 1).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "coflow/job.h"
#include "common/units.h"

namespace gurita {

/// Per-job static quantities the bounds are assembled from.
struct JobBound {
  Bytes total_bytes = 0;
  int stages = 1;            ///< stage_count(spec)
  Time release = 0;          ///< arrival time
  /// Bound (a): DAG critical path over per-coflow max-port times (seconds).
  double critical_path = 0;
};

/// Computes the bounds for one workload on a fabric of `num_hosts` hosts
/// whose host ports (NIC ingress/egress) run at `capacity` bytes/s —
/// the big-switch relaxation of whatever topology actually ran the jobs.
/// All queries are pure functions of the inputs (deterministic).
class BoundAnalysis {
 public:
  BoundAnalysis(const std::vector<JobSpec>& jobs, int num_hosts,
                Rate capacity);

  [[nodiscard]] const std::vector<JobBound>& jobs() const { return jobs_; }
  [[nodiscard]] int num_hosts() const { return num_hosts_; }
  [[nodiscard]] Rate capacity() const { return capacity_; }

  /// Sound lower bound on the average JCT of the selected subset: the max
  /// of port_load_bound and ordering_bound. `include` is indexed like the
  /// input jobs; empty selects every job. Returns 0 for an empty subset.
  [[nodiscard]] double average_jct_bound(
      const std::vector<bool>& include = {}) const;

  /// Bound (a) alone: mean per-job critical path over the subset.
  [[nodiscard]] double port_load_bound(
      const std::vector<bool>& include = {}) const;

  /// Bound (b) alone: max over ports of the SRPT relaxation (jobs off the
  /// port contribute their critical path). Never below port_load_bound's
  /// numerator minus per-job slack — the max with (a) is taken by
  /// average_jct_bound.
  [[nodiscard]] double ordering_bound(
      const std::vector<bool>& include = {}) const;

 private:
  /// Port ids: 0..num_hosts-1 = host uplinks (sender NICs),
  /// num_hosts..2*num_hosts-1 = host downlinks (receiver NICs).
  [[nodiscard]] static int uplink_port(int host) { return host; }
  [[nodiscard]] int downlink_port(int host) const { return num_hosts_ + host; }

  int num_hosts_;
  Rate capacity_;
  std::vector<JobBound> jobs_;
  /// port -> sorted (job index, service seconds at nominal capacity).
  std::vector<std::vector<std::pair<std::size_t, double>>> port_demand_;
};

/// Exact minimum of sum of flow times (completion - release) for preemptive
/// single-machine scheduling with release dates — the SRPT schedule.
/// `jobs` holds (release, processing) pairs; both in seconds. Exposed for
/// the hand-computed tightness tests.
[[nodiscard]] double srpt_total_flow_time(
    const std::vector<std::pair<double, double>>& jobs);

}  // namespace gurita
