// Ablation bench — the design choices DESIGN.md calls out, each toggled on
// the same trace workload:
//
//   * rule 4 (critical-path discount) on/off,
//   * starvation mitigation (WRR emulation) vs pure SPQ,
//   * HR update interval δ sweep (coordination staleness),
//   * priority-queue count (the paper uses 4, notes switches offer 8),
//   * ε variant: continuous vs the paper's literal d>=1 branch.
//
// Every variant replays the identical job set, so the variants are
// independent runs the parallel runner can shard (--jobs N; the printed
// table is identical at any N).
//
//   ./bench_ablation [--num-jobs 250] [--seed 7] [--jobs N]
#include <iostream>

#include "core/gurita.h"
#include "exp/args.h"
#include "exp/experiment.h"
#include "exp/runner.h"
#include "metrics/report.h"

namespace gurita {
namespace {

struct Variant {
  std::string name;
  GuritaScheduler::Config config;
};

}  // namespace
}  // namespace gurita

namespace {

int run(const gurita::Args& args) {
  using namespace gurita;
  const int num_jobs = args.get_int("num-jobs", 250);
  const std::uint64_t seed = args.get_u64("seed", 7);
  const int jobs = resolve_jobs(args);
  args.reject_unread();

  ExperimentConfig config =
      trace_scenario(StructureKind::kTpcDs, num_jobs, seed);
  const FatTree fabric(FatTree::Config{config.fat_tree_k, config.link_capacity});
  TraceConfig trace = config.trace;
  trace.num_hosts = fabric.num_hosts();
  const std::vector<JobSpec> workload = generate_trace(trace);

  const GuritaScheduler::Config base;
  std::vector<Variant> variants;
  variants.push_back({"default (4 queues, CP on, WRR on, delta=8ms)", base});
  {
    GuritaScheduler::Config gc = base;
    gc.use_critical_path = false;
    variants.push_back({"rule 4 off (no critical-path discount)", gc});
  }
  {
    GuritaScheduler::Config gc = base;
    gc.starvation_mitigation = false;
    variants.push_back({"pure SPQ (no WRR starvation mitigation)", gc});
  }
  for (const double delta_ms : {1.0, 4.0, 20.0, 80.0}) {
    GuritaScheduler::Config gc = base;
    gc.delta = delta_ms * kMillisecond;
    variants.push_back({"delta = " + TextTable::num(delta_ms) + " ms", gc});
  }
  for (const int queues : {2, 8}) {
    GuritaScheduler::Config gc = base;
    gc.queues = queues;
    variants.push_back({"queues = " + std::to_string(queues), gc});
  }
  {
    GuritaScheduler::Config gc = base;
    gc.paper_literal_epsilon = true;
    variants.push_back({"paper-literal epsilon branch", gc});
  }
  {
    GuritaScheduler::Config gc = base;
    gc.beta = 0.1;
    variants.push_back({"beta = 0.1 (weak critical-path discount)", gc});
  }
  {
    GuritaScheduler::Config gc = base;
    gc.gamma = 0.75;
    variants.push_back({"gamma = 0.75 (weak skew adjustment)", gc});
  }
  {
    GuritaScheduler::Config gc = base;
    gc.adaptive_thresholds = true;
    variants.push_back({"adaptive (quantile-learned) thresholds", gc});
  }

  // Each variant is self-contained (own scheduler, fresh fabric inside
  // run_one); results land in their variant's slot, so the table below is
  // independent of scheduling order.
  std::vector<double> avg_jct(variants.size(), 0.0);
  run_sharded(variants.size(), jobs, [&](std::size_t i) {
    GuritaScheduler gurita(variants[i].config);
    avg_jct[i] = run_one(config, workload, gurita).average_jct();
  });

  std::cout << "=== Ablation: Gurita design choices (avg JCT in seconds; "
               "lower is better) ===\n\n";
  const double base_jct = avg_jct[0];
  TextTable t({"variant", "avg JCT(s)", "vs default"});
  t.add_row({variants[0].name, TextTable::num(base_jct), "1.000"});
  for (std::size_t i = 1; i < variants.size(); ++i)
    t.add_row({variants[i].name, TextTable::num(avg_jct[i]),
               TextTable::num(avg_jct[i] / base_jct)});
  std::cout << t.to_string() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return gurita::run_main(argc, argv, run);
}
