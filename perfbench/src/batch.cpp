// Batch workloads: the paper's Fig. 5-7 scenarios on the k-ary fat-tree,
// replayed under PFS, Baraat, Stream, Aalo and Gurita one after another.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "exp/experiment.h"
#include "exp/registry.h"
#include "exp/runner.h"
#include "layers.h"
#include "common/rng.h"
#include "topology/fattree.h"
#include "traced.h"
#include "workloads.h"

namespace perfbench {

namespace {

using gurita::ArrivalPattern;
using gurita::StructureKind;

struct BatchWorkload {
  const char* name;
  int pods;
  ArrivalPattern arrivals;
  /// One generated trace per structure, each with its own derived seed.
  std::vector<StructureKind> structures;
  int full_jobs;  ///< jobs per trace at the size BENCHMARK.json measures
  int tiny_jobs;  ///< jobs per trace in the benchmark's own tests
};

// fat8-trace: one link-connected component spans the active set, so the
// water-filling kernel dominates. fat48-bursty: per-link load is low and
// components small, so policy, frontier, calendar and routing dominate.
const BatchWorkload kWorkloads[] = {
    {"fat8-trace", 8, ArrivalPattern::kPoisson,
     {StructureKind::kTpcDs, StructureKind::kFbTao}, 20, 4},
    {"fat48-bursty", 48, ArrivalPattern::kBursty, {StructureKind::kFbTao},
     100, 10},
};

// Job shapes, sizes and arrival times are one fixed draw per workload; the
// run's seed only places them (host permutation, ECMP salt). Every seed
// then offers the same work, so a run's cost moves with the program and
// not with how many giant jobs the seed happened to draw.
constexpr std::uint64_t kTraceSeed = 2019;

// The Fig. 5 comparison, in the paper's order.
const char* const kSchedulers[] = {"pfs", "baraat", "stream", "aalo",
                                   "gurita"};

/// Span and allocator totals of one scheduler's traced runs in a round.
struct SchedTrace {
  double assign_s = 0;
  double tick_s = 0;
  double ticks = 0;
  double tick_changes = 0;
  double wall_s = 0;
  EngineLayers engine;
};

struct Round : RoundTotals {
  double build_s = 0;
  double gen_s = 0;
  double submit_s = 0;
  // Traced rounds only.
  std::map<std::string, SchedTrace> sched;
  EngineLayers engine;
  double route_s = 0;
  double route_calls = 0;
  double self_s = 0;
  double flow_touches = 0;
};

/// The scenario's trace with the Table-1 size categories stratified: each
/// category gets its weight's share of the jobs (largest remainder) instead
/// of a multinomial draw, and the jobs take the scenario's own arrival
/// times in a seeded random order. A run's cost is dominated by its few
/// giant jobs, so an unstratified trace costs several times more on one
/// seed than on another; stratified, every seed offers the paper's mix.
std::vector<gurita::JobSpec> stratified_trace(const gurita::TraceConfig& config) {
  const std::vector<gurita::JobSpec> arrivals = gurita::generate_trace(config);
  const std::size_t n = arrivals.size();
  const std::vector<double>& weights = config.category_weights;
  double total = 0;
  for (double w : weights) total += w;
  std::vector<std::size_t> counts(weights.size());
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t assigned = 0;
  for (std::size_t c = 0; c < weights.size(); ++c) {
    const double share = weights[c] / total * static_cast<double>(n);
    counts[c] = static_cast<std::size_t>(share);
    assigned += counts[c];
    remainders.emplace_back(share - static_cast<double>(counts[c]), c);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; assigned < n; ++i, ++assigned)
    ++counts[remainders[i].second];

  std::vector<gurita::JobSpec> jobs;
  jobs.reserve(n);
  for (std::size_t c = 0; c < weights.size(); ++c) {
    if (counts[c] == 0) continue;
    gurita::TraceConfig one = config;
    one.num_jobs = static_cast<int>(counts[c]);
    one.category_weights.assign(weights.size(), 0.0);
    one.category_weights[c] = 1.0;
    one.seed = gurita::derive_run_seed(config.seed, "category", c, 0);
    for (gurita::JobSpec& job : gurita::generate_trace(one))
      jobs.push_back(std::move(job));
  }
  gurita::Rng rng(gurita::derive_run_seed(config.seed, "order", 0, 0));
  for (std::size_t i = n - 1; i > 0; --i)
    std::swap(jobs[i], jobs[rng.uniform_int(0, i)]);
  for (std::size_t i = 0; i < n; ++i)
    jobs[i].arrival_time = arrivals[i].arrival_time;
  return jobs;
}

/// Moves every flow endpoint through one random permutation of the hosts,
/// so the same jobs run between other hosts and over other links.
void place_jobs(std::vector<gurita::JobSpec>& jobs, int num_hosts,
                std::uint64_t seed) {
  std::vector<int> host(static_cast<std::size_t>(num_hosts));
  for (int h = 0; h < num_hosts; ++h) host[static_cast<std::size_t>(h)] = h;
  gurita::Rng rng(seed);
  for (std::size_t i = host.size() - 1; i > 0; --i)
    std::swap(host[i], host[rng.uniform_int(0, i)]);
  for (gurita::JobSpec& job : jobs)
    for (gurita::CoflowSpec& coflow : job.coflows)
      for (gurita::FlowSpec& flow : coflow.flows) {
        flow.src_host = host[static_cast<std::size_t>(flow.src_host)];
        flow.dst_host = host[static_cast<std::size_t>(flow.dst_host)];
      }
}

/// Empty when `results` is a complete, consistent run of `jobs`.
std::string check_results(const gurita::SimResults& results,
                          const std::vector<gurita::JobSpec>& jobs) {
  if (results.jobs.size() != jobs.size())
    return "reported " + std::to_string(results.jobs.size()) + " of " +
           std::to_string(jobs.size()) + " jobs";
  gurita::Time latest = 0;
  for (const gurita::SimResults::JobResult& job : results.jobs) {
    const std::uint64_t id = job.id.value();
    if (id >= jobs.size()) return "job id " + std::to_string(id) + " unknown";
    const gurita::JobSpec& spec = jobs[id];
    if (job.failed) return "job " + std::to_string(id) + " failed";
    if (job.arrival != spec.arrival_time || !std::isfinite(job.finish) ||
        job.finish < job.arrival)
      return "job " + std::to_string(id) + " has an impossible finish time";
    if (job.total_bytes != spec.total_bytes())
      return "job " + std::to_string(id) + " lost bytes";
    latest = std::max(latest, job.finish);
  }
  if (latest != results.makespan) return "makespan is not the last finish";
  if (results.events == 0) return "no events";
  return "";
}

/// Folds the spans of one traced run (log indices [first, end)) into the
/// round: per-scheduler policy time, routing time and flowsim self time.
void fold_spans(const SpanLog& log, std::size_t first, SchedTrace& sched,
                Round& round) {
  const std::vector<Span>& spans = log.spans();
  std::vector<std::int64_t> child_ns(spans.size() - first, 0);
  for (std::size_t i = first; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    if (s.parent >= static_cast<std::int32_t>(first))
      child_ns[static_cast<std::size_t>(s.parent) - first] +=
          s.end_ns - s.start_ns;
    switch (s.name) {
      case SpanName::kAssign: sched.assign_s += dur; break;
      case SpanName::kTick: sched.tick_s += dur; break;
      case SpanName::kRoute:
        round.route_s += dur;
        ++round.route_calls;
        break;
      case SpanName::kRun: break;
    }
  }
  for (std::size_t i = first; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name != SpanName::kRun) continue;
    round.self_s += static_cast<double>(s.end_ns - s.start_ns -
                                        child_ns[i - first]) *
                    1e-9;
  }
}

Round run_round(const BatchWorkload& w, const RunOptions& opts,
                FingerprintBook& book, Tally& tally, SpanLog* log) {
  const bool traced = log != nullptr;
  const int num_jobs = opts.size == "tiny" ? w.tiny_jobs : w.full_jobs;
  Round round;
  double construct_s = 0;

  Clock::time_point t = Clock::now();
  const gurita::FatTree fabric(gurita::FatTree::Config{
      w.pods, gurita::gbps(10.0),
      gurita::derive_run_seed(opts.seed, "ecmp", 0, 0)});
  round.build_s = seconds_since(t);

  std::uint32_t run_id = 0;
  for (std::size_t s = 0; s < w.structures.size(); ++s) {
    const StructureKind structure = w.structures[s];
    const std::uint64_t trace_seed =
        gurita::derive_run_seed(kTraceSeed, w.name, s, 0);
    gurita::ExperimentConfig config =
        w.arrivals == ArrivalPattern::kBursty
            ? gurita::bursty_scenario(structure, num_jobs, trace_seed, w.pods)
            : gurita::trace_scenario(structure, num_jobs, trace_seed);
    config.trace.num_hosts = fabric.num_hosts();
    t = Clock::now();
    std::vector<gurita::JobSpec> jobs = stratified_trace(config.trace);
    place_jobs(jobs, fabric.num_hosts(),
               gurita::derive_run_seed(opts.seed, "placement", s, 0));
    round.gen_s += seconds_since(t);

    for (const char* name : kSchedulers) {
      const std::string cell = std::string(to_string(structure)) + "/" + name;
      ++tally.attempted;
      try {
        t = Clock::now();
        const std::unique_ptr<gurita::Scheduler> policy =
            gurita::make_scheduler(name);
        RunContext ctx{log, run_id++, -1, 0, 0};
        std::optional<TracedScheduler> traced_policy;
        std::optional<TracedFabric> traced_fabric;
        gurita::obs::PhaseProfiler profiler;
        gurita::Simulator::Config sim_config;
        if (traced) {
          traced_policy.emplace(*policy, ctx);
          traced_fabric.emplace(fabric, ctx);
          sim_config.profiler = &profiler;
        }
        const gurita::Fabric& sim_fabric =
            traced ? static_cast<const gurita::Fabric&>(*traced_fabric)
                   : fabric;
        gurita::Scheduler& sim_policy =
            traced ? static_cast<gurita::Scheduler&>(*traced_policy) : *policy;
        gurita::Simulator sim(sim_fabric, sim_policy, sim_config);
        construct_s += seconds_since(t);

        const std::size_t first_span = traced ? log->spans().size() : 0;
        t = Clock::now();
        for (const gurita::JobSpec& job : jobs) (void)sim.submit(job);
        round.submit_s += seconds_since(t);

        if (traced) ctx.parent = log->open(SpanName::kRun, ctx.run, -1);
        t = Clock::now();
        const gurita::SimResults results = sim.run();
        const double wall = seconds_since(t);
        if (traced) log->close(ctx.parent);

        round.wall_s += wall;
        if (std::string(name) == "gurita") round.gurita_wall_s += wall;
        round.events += static_cast<double>(results.events);
        round.jobs += static_cast<double>(results.jobs.size());

        std::string why = check_results(results, jobs);
        if (!why.empty()) {
          tally.fail(1, cell + ": " + why);
        } else if (!book.check(cell, fingerprint(results), why)) {
          tally.fail(1, why);
        }

        if (traced) {
          SchedTrace& st = round.sched[name];
          st.wall_s += wall;
          st.ticks += static_cast<double>(ctx.ticks);
          st.tick_changes += static_cast<double>(ctx.tick_changes);
          const EngineLayers engine =
              read_engine_layers(profiler.snapshot(), sim.allocator_stats());
          st.engine.add(engine);
          round.engine.add(engine);
          round.flow_touches += static_cast<double>(results.flow_touches);
          fold_spans(*log, first_span, st, round);
        }
      } catch (const std::exception& e) {
        tally.fail(1, cell + ": " + e.what());
      }
    }
  }
  round.setup_s = round.build_s + round.gen_s + construct_s + round.submit_s;
  return round;
}

}  // namespace

bool is_batch_workload(const std::string& name) {
  for (const BatchWorkload& w : kWorkloads)
    if (name == w.name) return true;
  return false;
}

Values run_batch(const RunOptions& opts, FingerprintBook& book, Tally& tally) {
  const BatchWorkload* workload = nullptr;
  for (const BatchWorkload& w : kWorkloads)
    if (opts.workload == w.name) workload = &w;
  const BatchWorkload& w = *workload;

  std::vector<Round> plain;
  std::vector<Round> traced;
  SpanLog last_log;
  run_rounds(opts, plain, traced, [&](bool trace) {
    if (!trace) return run_round(w, opts, book, tally, nullptr);
    SpanLog log;
    Round round = run_round(w, opts, book, tally, &log);
    last_log = std::move(log);
    return round;
  });

  Values v = end_to_end(plain);
  if (!opts.trace) return v;

  last_log.write_csv(opts.scratch_dir + "/spans-" + w.name + "-" +
                     std::to_string(opts.seed) + ".csv");
  const auto med = [&](auto get) { return median_of(traced, get); };
  v["flowsim.alloc_converge_s"] =
      med([](const Round& r) { return r.engine.alloc_converge_s; });
  v["flowsim.alloc_frontier_s"] =
      med([](const Round& r) { return r.engine.alloc_frontier_s; });
  v["flowsim.calendar_drain_s"] =
      med([](const Round& r) { return r.engine.calendar_drain_s; });
  v["flowsim.dag_release_s"] =
      med([](const Round& r) { return r.engine.dag_release_s; });
  v["flowsim.flows_solved"] =
      med([](const Round& r) { return r.engine.flows_solved; });
  v["flowsim.flows_per_allocation"] = med([](const Round& r) {
    return ratio(r.engine.flows_solved, r.engine.allocations);
  });
  v["flowsim.components_solved"] =
      med([](const Round& r) { return r.engine.components_solved; });
  v["flowsim.dirty_links"] =
      med([](const Round& r) { return r.engine.dirty_links; });
  v["flowsim.flow_touches"] =
      med([](const Round& r) { return r.flow_touches; });
  v["flowsim.submit_s"] = med([](const Round& r) { return r.submit_s; });
  v["flowsim.self_s"] = med([](const Round& r) { return r.self_s; });
  v["topology.route_s"] = med([](const Round& r) { return r.route_s; });
  v["topology.route_calls"] =
      med([](const Round& r) { return r.route_calls; });
  v["topology.build_s"] = med([](const Round& r) { return r.build_s; });
  v["workload.gen_s"] = med([](const Round& r) { return r.gen_s; });
  for (const char* name : kSchedulers) {
    const std::string prefix = std::string(name) == "gurita"
                                   ? "core.gurita."
                                   : "sched." + std::string(name) + ".";
    const auto per = [&](auto get) {
      return med([&](const Round& r) {
        const auto it = r.sched.find(name);  // absent if every run threw
        return it == r.sched.end() ? 0.0 : get(it->second);
      });
    };
    v[prefix + "assign_s"] = per([](const SchedTrace& s) { return s.assign_s; });
    v[prefix + "tick_s"] = per([](const SchedTrace& s) { return s.tick_s; });
    v[prefix + "tick_change_ratio"] = per(
        [](const SchedTrace& s) { return ratio(s.tick_changes, s.ticks); });
    v[prefix + "wall_s"] = per([](const SchedTrace& s) { return s.wall_s; });
    v[prefix + "flows_solved"] =
        per([](const SchedTrace& s) { return s.engine.flows_solved; });
  }
  v["obs.trace_overhead"] =
      ratio(median_of(traced, [](const Round& r) { return r.wall_s; }),
            v["host.raw_wall_s"]);
  return v;
}

}  // namespace perfbench
