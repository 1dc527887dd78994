// Job dependency-structure templates.
//
// The Microsoft production study cited by the paper [28, Graphene OSDI'16]
// reports that job DAGs come as chains, trees, "W" shapes, inverted-"V"
// shapes, parallel chains and multi-rooted composites, with an average
// depth of five stages. These builders produce the `deps` relation for a
// JobSpec; flow contents are attached separately by the workload generator.
//
// Convention: deps[i] lists the coflows that must finish before coflow i
// starts. Indices are assigned so leaves come first (but callers must not
// rely on that — only on the declared structure).
#pragma once

#include <vector>

#include "common/rng.h"

namespace gurita::shapes {

using Deps = std::vector<std::vector<int>>;

/// A single coflow, no dependencies (single-stage job).
[[nodiscard]] Deps single();

/// Linear chain of `length` coflows: 0 <- 1 <- ... <- length-1.
[[nodiscard]] Deps chain(int length);

/// `count` independent chains of `length` within one job (parallel chains —
/// stages can overlap across chains, §I "special cases").
[[nodiscard]] Deps parallel_chains(int count, int length);

/// Complete `fanout`-ary in-tree of `depth` levels; the root is the final
/// stage and every internal node depends on its `fanout` children.
/// depth = 1 yields a single coflow.
[[nodiscard]] Deps tree(int depth, int fanout);

/// Inverted "V": `width` independent leaves all feeding one root.
[[nodiscard]] Deps inverted_v(int width);

/// "W": two roots over three leaves with the middle leaf shared
/// (root0 <- {leaf0, leaf1}, root1 <- {leaf1, leaf2}).
[[nodiscard]] Deps w_shape();

/// Multi-rooted composite: `roots` outputs each depending on a shared pool
/// of `shared` leaves (models "complex shapes with multiple outputs").
[[nodiscard]] Deps multi_root(int roots, int shared);

/// Random DAG over `n` coflows: an edge i -> j (j depends on i) is added
/// with probability `edge_prob` for i < j. Always acyclic. For property
/// tests.
[[nodiscard]] Deps random_dag(Rng& rng, int n, double edge_prob);

/// Number of stages implied by a deps relation (longest chain + 1).
[[nodiscard]] int depth_of(const Deps& deps);

}  // namespace gurita::shapes
