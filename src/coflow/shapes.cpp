#include "coflow/shapes.h"

#include <algorithm>

#include "common/check.h"

namespace gurita::shapes {

Deps single() { return Deps(1); }

Deps chain(int length) {
  GURITA_CHECK_MSG(length >= 1, "chain length must be >= 1");
  Deps deps(length);
  for (int i = 1; i < length; ++i) deps[i] = {i - 1};
  return deps;
}

Deps parallel_chains(int count, int length) {
  GURITA_CHECK_MSG(count >= 1 && length >= 1, "bad parallel_chains args");
  Deps deps(static_cast<std::size_t>(count) * length);
  for (int c = 0; c < count; ++c)
    for (int i = 1; i < length; ++i)
      deps[c * length + i] = {c * length + i - 1};
  return deps;
}

Deps tree(int depth, int fanout) {
  GURITA_CHECK_MSG(depth >= 1 && fanout >= 1, "bad tree args");
  // Build level by level, leaves (deepest level) first. Level d (0-based
  // from the root) has fanout^d nodes.
  std::vector<int> level_size(depth);
  int sz = 1;
  for (int d = 0; d < depth; ++d) {
    level_size[d] = sz;
    sz *= fanout;
  }
  // Assign indices: deepest level first.
  int total = 0;
  for (int d = 0; d < depth; ++d) total += level_size[d];
  Deps deps(total);
  // first_index[d] = index of the first node of level d (root level = 0).
  std::vector<int> first_index(depth);
  int cursor = 0;
  for (int d = depth - 1; d >= 0; --d) {
    first_index[d] = cursor;
    cursor += level_size[d];
  }
  for (int d = 0; d + 1 < depth; ++d) {
    for (int i = 0; i < level_size[d]; ++i) {
      const int parent = first_index[d] + i;
      for (int f = 0; f < fanout; ++f)
        deps[parent].push_back(first_index[d + 1] + i * fanout + f);
    }
  }
  return deps;
}

Deps inverted_v(int width) {
  GURITA_CHECK_MSG(width >= 1, "inverted_v width must be >= 1");
  Deps deps(width + 1);
  for (int i = 0; i < width; ++i) deps[width].push_back(i);
  return deps;
}

Deps w_shape() {
  Deps deps(5);
  deps[3] = {0, 1};  // root0 <- leaf0, leaf1
  deps[4] = {1, 2};  // root1 <- leaf1, leaf2
  return deps;
}

Deps multi_root(int roots, int shared) {
  GURITA_CHECK_MSG(roots >= 1 && shared >= 1, "bad multi_root args");
  Deps deps(shared + roots);
  for (int r = 0; r < roots; ++r)
    for (int s = 0; s < shared; ++s) deps[shared + r].push_back(s);
  return deps;
}

Deps random_dag(Rng& rng, int n, double edge_prob) {
  GURITA_CHECK_MSG(n >= 1, "random_dag needs n >= 1");
  GURITA_CHECK_MSG(edge_prob >= 0.0 && edge_prob <= 1.0,
                   "edge_prob out of [0,1]");
  Deps deps(n);
  for (int j = 1; j < n; ++j)
    for (int i = 0; i < j; ++i)
      if (rng.next_double() < edge_prob) deps[j].push_back(i);
  return deps;
}

int depth_of(const Deps& deps) {
  const int n = static_cast<int>(deps.size());
  std::vector<int> depth(n, 0);
  // deps indices can be in any order; iterate until fixpoint via
  // repeated relaxation bounded by n passes (structures here are small).
  bool changed = true;
  int guard = 0;
  while (changed) {
    GURITA_CHECK_MSG(++guard <= n + 1, "cycle in deps");
    changed = false;
    for (int i = 0; i < n; ++i) {
      for (int d : deps[i]) {
        if (depth[i] < depth[d] + 1) {
          depth[i] = depth[d] + 1;
          changed = true;
        }
      }
    }
  }
  return *std::max_element(depth.begin(), depth.end()) + 1;
}

}  // namespace gurita::shapes
