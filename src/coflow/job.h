// Static description of a multi-stage job: a DAG of coflows.
//
// Vertices are coflows; a directed dependency `u -> v` means v's coflow can
// start only after u's coflow completes (constraint (1.a) of the paper).
// We store, per coflow, the list of coflows it *depends on* (`deps`), i.e.
// its children in the paper's parent/child vocabulary.
//
// Stages (§II "Computation stages"): stage(c) = 1 for coflows with no
// dependencies (leaves — the first flows processed, observation O1), else
// 1 + max(stage of dependencies). Different coflows of one job can be in
// flight in different stages simultaneously when their dependency chains are
// independent (parallel chains).
#pragma once

#include <stdexcept>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "coflow/coflow.h"

namespace gurita {

/// A structurally invalid job spec. The message names the problem only
/// ("flow src and dst are the same host"), never a source location, since
/// specs come from user input (feeds, job files). A std::logic_error, so
/// callers catching that keep working.
class JobSpecError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

struct JobSpec {
  Time arrival_time = 0;
  /// Optional completion deadline (absolute time). 0 = no deadline.
  /// Validated against the arrival and carried through trace files, the
  /// JSONL feed and snapshots; no scheduler reads it.
  Time deadline = 0;
  std::vector<CoflowSpec> coflows;
  /// deps[i] = local indices of the coflows that must complete before
  /// coflow i may start. Empty = leaf (released on job arrival).
  std::vector<std::vector<int>> deps;

  [[nodiscard]] bool has_deadline() const { return deadline > 0; }

  [[nodiscard]] std::size_t coflow_count() const { return coflows.size(); }

  [[nodiscard]] Bytes total_bytes() const {
    Bytes t = 0;
    for (const CoflowSpec& c : coflows) t += c.total_bytes();
    return t;
  }
};

/// Structural sanity: deps sized to coflows, indices in range, no self-dep,
/// DAG (acyclic), each coflow has >= 1 flow, every flow size > 0, and flow
/// endpoints within [0, num_hosts) with src != dst.
/// Throws JobSpecError describing the first violation found.
void validate(const JobSpec& job, int num_hosts);

/// 1-based stage of every coflow (leaves = 1). Requires a valid DAG.
[[nodiscard]] std::vector<int> stages_of(const JobSpec& job);

/// Total number of stages (max over stages_of). Requires a valid DAG.
[[nodiscard]] int stage_count(const JobSpec& job);

/// Topological order of coflow indices (dependencies before dependents).
/// Throws JobSpecError if the dependency graph has a cycle.
[[nodiscard]] std::vector<int> topological_order(const JobSpec& job);

}  // namespace gurita
