#include "coflow/job.h"

#include <algorithm>

namespace gurita {

namespace {

void require(bool ok, const char* what) {
  if (!ok) throw JobSpecError(what);
}

}  // namespace

std::vector<int> topological_order(const JobSpec& job) {
  const int n = static_cast<int>(job.coflows.size());
  require(static_cast<int>(job.deps.size()) == n,
          "deps must be sized to coflows");
  // Kahn's algorithm over the deps relation.
  std::vector<int> remaining_deps(n, 0);
  std::vector<std::vector<int>> dependents(n);
  for (int i = 0; i < n; ++i) {
    remaining_deps[i] = static_cast<int>(job.deps[i].size());
    for (int d : job.deps[i]) {
      require(d >= 0 && d < n, "dependency index out of range");
      dependents[d].push_back(i);
    }
  }
  std::vector<int> order;
  order.reserve(n);
  std::vector<int> ready;
  for (int i = 0; i < n; ++i)
    if (remaining_deps[i] == 0) ready.push_back(i);
  while (!ready.empty()) {
    const int u = ready.back();
    ready.pop_back();
    order.push_back(u);
    for (int v : dependents[u])
      if (--remaining_deps[v] == 0) ready.push_back(v);
  }
  require(static_cast<int>(order.size()) == n,
          "coflow dependency graph has a cycle");
  return order;
}

void validate(const JobSpec& job, int num_hosts) {
  require(!job.coflows.empty(), "job has no coflows");
  require(job.deps.size() == job.coflows.size(),
          "deps must be sized to coflows");
  require(job.arrival_time >= 0, "negative arrival time");
  require(!job.has_deadline() || job.deadline > job.arrival_time,
          "deadline must fall after arrival");
  const int n = static_cast<int>(job.coflows.size());
  for (int i = 0; i < n; ++i) {
    for (int d : job.deps[i]) {
      require(d >= 0 && d < n, "dependency index out of range");
      require(d != i, "coflow depends on itself");
    }
    require(!job.coflows[i].flows.empty(), "coflow has no flows");
    for (const FlowSpec& f : job.coflows[i].flows) {
      require(f.size > 0, "flow size must be positive");
      require(f.src_host >= 0 && f.src_host < num_hosts,
              "flow src host out of range");
      require(f.dst_host >= 0 && f.dst_host < num_hosts,
              "flow dst host out of range");
      require(f.src_host != f.dst_host,
              "flow src and dst are the same host");
    }
  }
  (void)topological_order(job);  // throws on cycles
}

std::vector<int> stages_of(const JobSpec& job) {
  const std::vector<int> order = topological_order(job);
  std::vector<int> stage(job.coflows.size(), 1);
  for (int u : order) {
    for (int d : job.deps[u]) stage[u] = std::max(stage[u], stage[d] + 1);
  }
  return stage;
}

int stage_count(const JobSpec& job) {
  int m = 0;
  for (int s : stages_of(job)) m = std::max(m, s);
  return m;
}

}  // namespace gurita
