#include "bound/bound.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/check.h"

namespace gurita {

BoundAnalysis::BoundAnalysis(const std::vector<JobSpec>& jobs, int num_hosts,
                             Rate capacity)
    : num_hosts_(num_hosts), capacity_(capacity) {
  GURITA_CHECK_MSG(num_hosts > 0, "bound analysis needs a positive host count");
  GURITA_CHECK_MSG(capacity > 0, "bound analysis needs a positive capacity");
  jobs_.reserve(jobs.size());
  port_demand_.assign(static_cast<std::size_t>(2 * num_hosts), {});

  // Scratch reused across jobs: per-port bytes of the current coflow / job.
  std::vector<Bytes> coflow_port(static_cast<std::size_t>(2 * num_hosts), 0);
  std::vector<Bytes> job_port(static_cast<std::size_t>(2 * num_hosts), 0);
  std::vector<int> touched;

  for (std::size_t ji = 0; ji < jobs.size(); ++ji) {
    const JobSpec& spec = jobs[ji];
    JobBound jb;
    jb.total_bytes = spec.total_bytes();
    jb.stages = stage_count(spec);
    jb.release = spec.arrival_time;

    std::vector<int> job_touched;
    // Per-coflow max-port time, then a longest path over the DAG.
    std::vector<double> coflow_time(spec.coflows.size(), 0);
    for (std::size_t ci = 0; ci < spec.coflows.size(); ++ci) {
      touched.clear();
      for (const FlowSpec& f : spec.coflows[ci].flows) {
        const int up = uplink_port(f.src_host);
        const int down = downlink_port(f.dst_host);
        if (coflow_port[up] == 0) touched.push_back(up);
        if (coflow_port[down] == 0) touched.push_back(down);
        coflow_port[up] += f.size;
        coflow_port[down] += f.size;
        if (job_port[up] == 0) job_touched.push_back(up);
        if (job_port[down] == 0) job_touched.push_back(down);
        job_port[up] += f.size;
        job_port[down] += f.size;
      }
      Bytes worst = 0;
      for (const int p : touched) {
        worst = std::max(worst, coflow_port[p]);
        coflow_port[p] = 0;
      }
      coflow_time[ci] = worst / capacity_;
    }

    // Longest path: finish[i] = time[i] + max over deps of finish[dep].
    // topological_order guarantees dependencies are visited first.
    std::vector<double> finish(spec.coflows.size(), 0);
    for (const int ci : topological_order(spec)) {
      double start = 0;
      for (const int dep : spec.deps[static_cast<std::size_t>(ci)])
        start = std::max(start, finish[static_cast<std::size_t>(dep)]);
      finish[static_cast<std::size_t>(ci)] =
          start + coflow_time[static_cast<std::size_t>(ci)];
      jb.critical_path =
          std::max(jb.critical_path, finish[static_cast<std::size_t>(ci)]);
    }

    std::sort(job_touched.begin(), job_touched.end());
    for (const int p : job_touched) {
      port_demand_[static_cast<std::size_t>(p)].emplace_back(
          ji, job_port[p] / capacity_);
      job_port[p] = 0;
    }
    jobs_.push_back(jb);
  }
}

double srpt_total_flow_time(
    const std::vector<std::pair<double, double>>& jobs) {
  if (jobs.empty()) return 0;
  // (release, processing, arrival index), processed release-order.
  std::vector<std::pair<double, double>> order = jobs;
  std::sort(order.begin(), order.end());

  // Min-heap on (remaining, release, tie index) — fully deterministic.
  struct Item {
    double remaining;
    double release;
    std::size_t index;
    bool operator>(const Item& o) const {
      if (remaining != o.remaining) return remaining > o.remaining;
      if (release != o.release) return release > o.release;
      return index > o.index;
    }
  };
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;

  double t = 0;
  double total = 0;
  std::size_t i = 0;
  while (i < order.size() || !heap.empty()) {
    if (heap.empty()) t = std::max(t, order[i].first);
    while (i < order.size() && order[i].first <= t)
      heap.push({order[i].second, order[i].first, i}), ++i;
    Item cur = heap.top();
    heap.pop();
    const double next_release =
        i < order.size() ? order[i].first : std::numeric_limits<double>::max();
    if (t + cur.remaining <= next_release) {
      t += cur.remaining;
      total += t - cur.release;
    } else {
      cur.remaining -= next_release - t;
      t = next_release;
      heap.push(cur);
    }
  }
  return total;
}

namespace {

bool selected(const std::vector<bool>& include, std::size_t i) {
  return include.empty() || include[i];
}

}  // namespace

double BoundAnalysis::port_load_bound(const std::vector<bool>& include) const {
  double sum = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (!selected(include, i)) continue;
    sum += jobs_[i].critical_path;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double BoundAnalysis::ordering_bound(const std::vector<bool>& include) const {
  double cp_sum = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (!selected(include, i)) continue;
    cp_sum += jobs_[i].critical_path;
    ++n;
  }
  if (n == 0) return 0;

  // For each port: the SRPT optimum over the subset's jobs on that port,
  // plus the critical-path term of the subset's jobs NOT on the port. The
  // two job sets are disjoint, so the sums add soundly; per-job terms may
  // not be mixed (SRPT bounds only the sum of flow times, not each job's).
  double best = cp_sum;  // the no-port baseline: bound (a)'s numerator
  std::vector<std::pair<double, double>> on_port;
  for (const auto& demands : port_demand_) {
    if (demands.empty()) continue;
    on_port.clear();
    double off_port_cp = cp_sum;
    for (const auto& [ji, seconds] : demands) {
      if (!selected(include, ji)) continue;
      on_port.emplace_back(jobs_[ji].release, seconds);
      off_port_cp -= jobs_[ji].critical_path;
    }
    if (on_port.empty()) continue;
    best = std::max(best, srpt_total_flow_time(on_port) + off_port_cp);
  }
  return best / static_cast<double>(n);
}

double BoundAnalysis::average_jct_bound(
    const std::vector<bool>& include) const {
  return std::max(port_load_bound(include), ordering_bound(include));
}

}  // namespace gurita
