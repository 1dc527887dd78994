// Engine microbenchmark: per-event cost of the event-calendar simulator.
//
// Sweeps the number of simultaneously active flows (1k / 10k / 100k by
// default) over a big-switch fabric with disjoint host pairs, so each
// completion batch disturbs no other flow's rate — the regime where the
// old engine's per-event full-active-set scans hurt most. Two scenarios:
//
//   completions  flow-completion events only (PFS, no ticks)
//   ticks        the same workload under a δ-tick scheduler whose ticks
//                change nothing (the Gurita HR cadence) — every tick is an
//                event the calendar engine handles without touching flows
//
// Reports, per configuration: events, engine flow touches, the equivalent
// legacy full-scan touches (both counted by the engine itself — see
// SimResults), their ratio, wall time, and the engine phase profile
// (obs/profiler.h). Writes BENCH_engine.json for cross-PR tracking.
//
// Telemetry overhead guard: with --overhead-guard (default on), the first
// configured flow count is re-run three ways — without any obs wiring,
// with a TraceRecorder attached whose kind mask is empty (the
// disabled-tracing hot path: one null check + one bit test per emission
// site), and additionally with an interval sampler whose first boundary
// lies past the makespan (the disabled-sampling hot path: one comparison
// per event). Min-of-5 trials each; the run breaches if either telemetry
// path is > 2% slower AND more than 0.5 ms absolute — all recorded in
// BENCH_engine.json, nonzero exit on breach.
//
//   ./bench_engine [--flows 1000,10000,100000] [--groups 32]
//                  [--tick 0.1] [--out BENCH_engine.json]
//                  [--profile true] [--overhead-guard true]
//                  [--log-level warn]
#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>
#include <vector>

#include "common/atomic_file.h"
#include "exp/args.h"
#include "flowsim/simulator.h"
#include "obs/profiler.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "sched/pfs.h"
#include "topology/big_switch.h"

namespace gurita {
namespace {

/// PFS priorities with a fixed coordination tick that never changes them:
/// isolates the engine's per-event cost under a Gurita-like δ cadence.
class TickingPfsScheduler final : public Scheduler {
 public:
  explicit TickingPfsScheduler(Time delta) : delta_(delta) {}
  [[nodiscard]] std::string name() const override { return "ticking-pfs"; }
  [[nodiscard]] Time tick_interval() const override { return delta_; }
  bool on_tick(Time now) override {
    (void)now;
    return false;
  }
  void assign(Time now, const std::vector<SimFlow*>& active) override {
    (void)now;
    for (SimFlow* f : active) {
      f->tier = 0;
      f->weight = 1.0;
    }
  }

 private:
  Time delta_;
};

struct BenchRow {
  int flows = 0;
  std::string scenario;
  double wall_ms = 0;
  Time makespan = 0;
  std::uint64_t events = 0;
  std::uint64_t flow_touches = 0;
  std::uint64_t legacy_flow_touches = 0;
  AllocStats alloc;
  obs::PhaseProfile profile;
  bool profiled = false;

  [[nodiscard]] double touch_ratio() const {
    return flow_touches == 0
               ? 0.0
               : static_cast<double>(legacy_flow_touches) /
                     static_cast<double>(flow_touches);
  }
};

/// One job, one coflow, `flows` transfers on disjoint host pairs
/// (i -> flows + i), sizes spread over `groups` distinct values so
/// completions arrive in `groups` batches.
JobSpec disjoint_pairs_job(int flows, int groups) {
  JobSpec job;
  CoflowSpec coflow;
  coflow.flows.reserve(static_cast<std::size_t>(flows));
  for (int i = 0; i < flows; ++i) {
    const Bytes size = 100.0 * static_cast<double>(1 + i % groups);
    coflow.flows.push_back(FlowSpec{i, flows + i, size});
  }
  job.coflows.push_back(std::move(coflow));
  job.deps = {{}};
  return job;
}

/// How the run is wired to the obs/ subsystem.
enum class ObsWiring {
  kNone,             ///< no recorder, no profiler (the pre-obs hot path)
  kDisabledRecorder, ///< recorder attached with an empty kind mask
  kIdleSampler,      ///< empty-mask recorder + sampler that never fires
  kProfile,          ///< phase profiler attached
};

BenchRow run_one(int flows, int groups, Time tick, bool ticking,
                 ObsWiring wiring) {
  const BigSwitch fabric(BigSwitch::Config{2 * flows, 100.0});
  PfsScheduler pfs;
  TickingPfsScheduler ticking_pfs(tick);
  Scheduler& scheduler =
      ticking ? static_cast<Scheduler&>(ticking_pfs) : pfs;
  obs::TraceRecorder disabled_recorder(/*mask=*/0);
  obs::PhaseProfiler profiler;
  // A sampler whose first boundary lies far past any makespan this bench
  // reaches: the per-event cost is exactly the attached-but-idle poll (one
  // null check + one comparison).
  obs::IntervalSampler idle_sampler(obs::IntervalSampler::Config{1e18});
  Simulator::Config config;
  if (wiring == ObsWiring::kDisabledRecorder ||
      wiring == ObsWiring::kIdleSampler)
    config.trace = &disabled_recorder;
  if (wiring == ObsWiring::kIdleSampler) config.sampler = &idle_sampler;
  if (wiring == ObsWiring::kProfile) config.profiler = &profiler;
  Simulator sim(fabric, scheduler, config);
  sim.submit(disjoint_pairs_job(flows, groups));

  const auto start = std::chrono::steady_clock::now();
  const SimResults results = sim.run();
  const auto stop = std::chrono::steady_clock::now();

  BenchRow row;
  row.flows = flows;
  row.scenario = ticking ? "ticks" : "completions";
  row.alloc = sim.allocator_stats();
  row.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  row.makespan = results.makespan;
  row.events = results.events;
  row.flow_touches = results.flow_touches;
  row.legacy_flow_touches = results.legacy_flow_touches;
  if (wiring == ObsWiring::kProfile) {
    row.profile = profiler.snapshot();
    row.profiled = true;
  }
  return row;
}

std::vector<int> parse_flow_counts(const std::string& csv) {
  // Full-token validation (exp/args.h): a bad entry names itself instead
  // of silently truncating the list.
  std::vector<int> counts;
  try {
    counts = parse_int_list(csv);
  } catch (const std::invalid_argument& e) {
    std::cerr << "--flows: " << e.what() << "\n";
    std::exit(1);
  }
  for (const int n : counts) {
    if (n <= 0) {
      std::cerr << "--flows wants positive flow counts, got " << n
                << " in \"" << csv << "\"\n";
      std::exit(1);
    }
  }
  return counts;
}

struct OverheadGuard {
  bool ran = false;
  double baseline_ms = 0;   ///< min-of-trials, no obs wiring
  double disabled_ms = 0;   ///< min-of-trials, empty-mask recorder attached
  double sampler_ms = 0;    ///< min-of-trials, never-firing sampler attached
  bool breached = false;

  [[nodiscard]] double ratio() const {
    return baseline_ms <= 0 ? 0.0 : disabled_ms / baseline_ms;
  }
  [[nodiscard]] double sampler_ratio() const {
    return baseline_ms <= 0 ? 0.0 : sampler_ms / baseline_ms;
  }
};

/// Disabled-telemetry hot-path cost: min-of-`trials` wall time with no obs
/// wiring vs (a) an empty-mask recorder attached (disabled tracing — one
/// null check + one bit test per emission site, plus the sampler null check
/// in step()) and (b) additionally an interval sampler that never fires
/// (disabled sampling — the poll is one comparison). A breach requires both
/// a > 2% ratio AND > 0.5 ms absolute regression on either leg, so
/// sub-millisecond timing noise on tiny configs cannot trip it.
OverheadGuard run_overhead_guard(int flows, int groups, Time tick,
                                 int trials) {
  OverheadGuard guard;
  guard.ran = true;
  double base = std::numeric_limits<double>::infinity();
  double disabled = std::numeric_limits<double>::infinity();
  double sampler = std::numeric_limits<double>::infinity();
  for (int t = 0; t < trials; ++t) {
    base = std::min(
        base,
        run_one(flows, groups, tick, false, ObsWiring::kNone).wall_ms);
    disabled = std::min(
        disabled,
        run_one(flows, groups, tick, false, ObsWiring::kDisabledRecorder)
            .wall_ms);
    sampler = std::min(
        sampler,
        run_one(flows, groups, tick, false, ObsWiring::kIdleSampler)
            .wall_ms);
  }
  guard.baseline_ms = base;
  guard.disabled_ms = disabled;
  guard.sampler_ms = sampler;
  guard.breached =
      (disabled > base * 1.02 && disabled - base > 0.5) ||
      (sampler > base * 1.02 && sampler - base > 0.5);
  return guard;
}

void write_profile_json(std::ostream& out, const obs::PhaseProfile& profile) {
  out << "\"phases\": {";
  for (int p = 0; p < obs::kNumPhases; ++p) {
    const obs::PhaseProfile::Entry& e =
        profile.phases[static_cast<std::size_t>(p)];
    out << (p == 0 ? "" : ", ") << "\""
        << obs::phase_name(static_cast<obs::Phase>(p)) << "\": " << e.ns;
  }
  out << "}, \"phase_coverage\": " << profile.coverage();
}

bool write_json(const std::string& path, const std::vector<BenchRow>& rows,
                const OverheadGuard& guard) try {
  write_file_atomic(path, /*binary=*/false, [&](std::ostream& out) {
  out << "{\n  \"bench\": \"engine\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    out << "    {\"flows\": " << r.flows << ", \"scenario\": \"" << r.scenario
        << "\", \"events\": " << r.events
        << ", \"flow_touches\": " << r.flow_touches
        << ", \"legacy_flow_touches\": " << r.legacy_flow_touches
        << ", \"touch_ratio\": " << r.touch_ratio()
        << ", \"allocations\": " << r.alloc.allocations
        << ", \"flows_solved\": " << r.alloc.flows_solved
        << ", \"components_solved\": " << r.alloc.components_solved
        << ", \"dirty_links\": " << r.alloc.dirty_links
        << ", \"wall_ms\": " << r.wall_ms << ", \"makespan\": " << r.makespan;
    if (r.profiled) {
      out << ", ";
      write_profile_json(out, r.profile);
    }
    out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]";
  if (guard.ran) {
    out << ",\n  \"overhead_guard\": {\"baseline_ms\": " << guard.baseline_ms
        << ", \"disabled_tracing_ms\": " << guard.disabled_ms
        << ", \"ratio\": " << guard.ratio()
        << ", \"disabled_sampling_ms\": " << guard.sampler_ms
        << ", \"sampling_ratio\": " << guard.sampler_ratio()
        << ", \"breached\": " << (guard.breached ? "true" : "false") << "}";
  }
  out << "\n}\n";
  });
  return true;
} catch (const std::exception&) {
  return false;
}

}  // namespace
}  // namespace gurita

int main(int argc, char** argv) {
  using namespace gurita;
  const Args args(argc, argv);
  apply_log_level(args);
  const std::vector<int> flow_counts =
      parse_flow_counts(args.get_string("flows", "1000,10000,100000"));
  const int groups = args.get_int("groups", 32);
  const Time tick = args.get_double("tick", 0.1);
  const std::string out_path = args.get_string("out", "BENCH_engine.json");
  const bool profile = args.get_bool("profile", true);
  const bool overhead = args.get_bool("overhead-guard", true);
  const int guard_trials = args.get_int("overhead-trials", 5);

  std::cout << "=== Engine microbenchmark: per-event flow touches ===\n"
               "touch_ratio = legacy full-scan touches / calendar-engine "
               "touches (higher is better).\n\n";
  std::cout << "flows      scenario       events    touches     "
               "legacy      ratio    wall_ms\n";

  std::vector<BenchRow> rows;
  obs::PhaseProfile total;
  for (const int flows : flow_counts) {
    for (const bool ticking : {false, true}) {
      const BenchRow row =
          run_one(flows, groups, tick, ticking,
                  profile ? ObsWiring::kProfile : ObsWiring::kNone);
      std::printf("%-10d %-12s %8llu %10llu %10llu %9.1fx %9.2f\n",
                  row.flows, row.scenario.c_str(),
                  static_cast<unsigned long long>(row.events),
                  static_cast<unsigned long long>(row.flow_touches),
                  static_cast<unsigned long long>(row.legacy_flow_touches),
                  row.touch_ratio(), row.wall_ms);
      if (row.profiled) total.merge(row.profile);
      rows.push_back(row);
    }
  }

  if (profile)
    std::cout << "\n=== Engine phase profile (summed over the matrix) ===\n"
              << total.to_table();

  OverheadGuard guard;
  if (overhead) {
    guard = run_overhead_guard(flow_counts.front(), groups, tick,
                               guard_trials);
    std::printf(
        "\noverhead guard (flows=%d, min of %d): baseline %.2f ms, "
        "disabled-tracing %.2f ms (ratio %.4f), disabled-sampling %.2f ms "
        "(ratio %.4f) -> %s\n",
        flow_counts.front(), guard_trials, guard.baseline_ms,
        guard.disabled_ms, guard.ratio(), guard.sampler_ms,
        guard.sampler_ratio(), guard.breached ? "BREACH" : "ok");
  }

  if (!write_json(out_path, rows, guard)) {
    std::cerr << "\nfailed to write " << out_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << out_path << "\n";
  return guard.breached ? 1 : 0;
}
