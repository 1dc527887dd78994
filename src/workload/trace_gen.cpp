#include "workload/trace_gen.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "metrics/category.h"

namespace gurita {

const char* to_string(ArrivalPattern pattern) {
  switch (pattern) {
    case ArrivalPattern::kPoisson:
      return "poisson";
    case ArrivalPattern::kBursty:
      return "bursty";
  }
  return "?";
}

namespace {

/// Draws a job's total bytes: pick a Table-1 category from the mixture,
/// then log-uniform within the category's bounds.
Bytes draw_total_bytes(Rng& rng, const std::vector<double>& weights) {
  const auto& bounds = category_lower_bounds();
  const std::size_t cat = rng.weighted_choice(weights);
  const Bytes lo = bounds[cat];
  const Bytes hi = cat + 1 < bounds.size() ? bounds[cat + 1] : 3 * kTB;
  const double u = rng.next_double();
  return lo * std::pow(hi / lo, u);
}

/// Splits `total` across `parts` with log-normal skew; every share > 0.
std::vector<Bytes> skewed_split(Rng& rng, Bytes total, int parts,
                                double sigma) {
  GURITA_CHECK_MSG(parts >= 1, "split into zero parts");
  std::vector<Bytes> shares(static_cast<std::size_t>(parts));
  double sum = 0;
  for (Bytes& s : shares) {
    s = rng.lognormal(0.0, sigma);
    sum += s;
  }
  for (Bytes& s : shares) s = std::max(1.0, s / sum * total);
  return shares;
}

int draw_width(Rng& rng, const TraceConfig& cfg, Bytes coflow_bytes) {
  // Wider coflows for bigger coflows, Pareto-skewed, capped by fabric size.
  const double scale =
      std::clamp(std::log10(std::max(coflow_bytes, 1.0) / kMB), 1.0, 6.0);
  const double raw =
      rng.bounded_pareto(1.0, cfg.max_width, cfg.width_pareto_alpha) * scale /
      3.0;
  // Floor: shuffle partitions bound per-flow size, so a large coflow is
  // never a single serial flow (~256 MB per flow at most on average).
  const int min_width =
      static_cast<int>(std::ceil(coflow_bytes / (256 * kMB)));
  const int cap = std::min(cfg.max_width, cfg.num_hosts - 1);
  return std::clamp(std::max(static_cast<int>(raw), min_width), 1, cap);
}

CoflowSpec make_coflow(Rng& rng, const TraceConfig& cfg, Bytes bytes) {
  CoflowSpec c;
  const int width = draw_width(rng, cfg, bytes);
  const std::vector<Bytes> sizes =
      skewed_split(rng, bytes, width, cfg.flow_skew_sigma);

  // Many-to-few shuffle: receivers are a smaller set than senders.
  const int num_receivers =
      std::max(1, width / static_cast<int>(rng.uniform_int(1, 4)));
  std::vector<int> receivers;
  receivers.reserve(static_cast<std::size_t>(num_receivers));
  for (int i = 0; i < num_receivers; ++i)
    receivers.push_back(
        static_cast<int>(rng.uniform_int(0, static_cast<std::uint64_t>(cfg.num_hosts) - 1)));

  c.flows.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    FlowSpec f;
    f.dst_host = receivers[static_cast<std::size_t>(i % num_receivers)];
    do {
      f.src_host = static_cast<int>(
          rng.uniform_int(0, static_cast<std::uint64_t>(cfg.num_hosts) - 1));
    } while (f.src_host == f.dst_host);
    f.size = sizes[static_cast<std::size_t>(i)];
    c.flows.push_back(f);
  }
  return c;
}

std::vector<Time> make_arrivals(Rng& rng, const TraceConfig& cfg) {
  std::vector<Time> at(static_cast<std::size_t>(cfg.num_jobs));
  Time t = 0;
  if (cfg.arrivals == ArrivalPattern::kPoisson) {
    for (Time& a : at) {
      t += rng.exponential(cfg.mean_interarrival);
      a = t;
    }
  } else {
    int in_burst = 0;
    for (Time& a : at) {
      a = t;
      if (++in_burst >= cfg.burst_size) {
        in_burst = 0;
        t += cfg.burst_gap;
      } else {
        t += cfg.burst_spacing;
      }
    }
  }
  return at;
}

}  // namespace

JobSpec generate_job(const TraceConfig& config, Rng& rng) {
  GURITA_CHECK_MSG(config.num_hosts >= 2, "need at least two hosts");
  GURITA_CHECK_MSG(
      config.category_weights.size() == static_cast<std::size_t>(kNumCategories),
      "category_weights must have seven entries");
  JobSpec job;
  job.deps = draw_deps(config.structure, rng);

  const Bytes total = draw_total_bytes(rng, config.category_weights);
  const int n = static_cast<int>(job.deps.size());
  // On-and-off byte profile: per-coflow shares are log-normally skewed.
  const std::vector<Bytes> shares =
      skewed_split(rng, total, n, config.stage_skew_sigma);
  job.coflows.reserve(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c)
    job.coflows.push_back(
        make_coflow(rng, config, shares[static_cast<std::size_t>(c)]));

  validate(job, config.num_hosts);
  return job;
}

std::vector<JobSpec> generate_trace(const TraceConfig& config) {
  GURITA_CHECK_MSG(config.num_jobs >= 1, "need at least one job");
  GURITA_CHECK_MSG(config.num_hosts >= 2, "need at least two hosts");
  GURITA_CHECK_MSG(
      config.category_weights.size() == static_cast<std::size_t>(kNumCategories),
      "category_weights must have seven entries");

  Rng rng(config.seed);
  Rng arrivals_rng = rng.split();
  const std::vector<Time> arrivals = make_arrivals(arrivals_rng, config);

  std::vector<JobSpec> jobs;
  jobs.reserve(static_cast<std::size_t>(config.num_jobs));
  for (int j = 0; j < config.num_jobs; ++j) {
    JobSpec job = generate_job(config, rng);
    job.arrival_time = arrivals[static_cast<std::size_t>(j)];
    jobs.push_back(std::move(job));
  }
  std::sort(jobs.begin(), jobs.end(),
            [](const JobSpec& a, const JobSpec& b) {
              return a.arrival_time < b.arrival_time;
            });
  return jobs;
}

}  // namespace gurita
