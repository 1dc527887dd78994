// Figure 6 — trace-driven scenario: average JCT improvement of Gurita over
// {Baraat, PFS, Stream, Aalo} in the seven Table-1 job-size categories, on
// an 8-pod fat-tree with (a) FB-Tao and (b) TPC-DS DAG structures.
//
// Paper shape to reproduce: Gurita wins across categories, with the largest
// gains for small jobs (categories I-II: up to 8.5x vs PFS, 5x vs Baraat,
// 4x vs Stream) and parity with centralized Aalo.
//
//   ./bench_fig6 [--num-jobs 300] [--seed 7] [--jobs N]
#include <iostream>

#include "exp/args.h"
#include "exp/experiment.h"
#include "exp/runner.h"
#include "metrics/report.h"

namespace gurita {
namespace {

const std::vector<std::string> kOthers = {"baraat", "pfs", "stream", "aalo"};

void print_panel(const std::string& title, const ComparisonResult& result,
                 int num_jobs, std::uint64_t seed) {
  std::cout << title << "  (jobs=" << num_jobs << ", seed=" << seed << ")\n";
  std::cout << category_panel(
                   result.collectors.at("gurita"), "gurita JCT(s)",
                   {"vs baraat", "vs pfs", "vs stream", "vs aalo"},
                   [&](int cat) {
                     std::vector<std::string> cols;
                     for (const std::string& other : kOthers)
                       cols.push_back(TextTable::num(
                           result.improvement("gurita", other, cat)));
                     return cols;
                   })
            << "\n";
}

}  // namespace
}  // namespace gurita

namespace {

int run(const gurita::Args& args) {
  using namespace gurita;
  const int num_jobs = args.get_int("num-jobs", 300);
  const std::uint64_t seed = args.get_u64("seed", 7);
  const int jobs = resolve_jobs(args);
  args.reject_unread();

  std::vector<std::string> all = kOthers;
  all.push_back("gurita");
  std::vector<ExperimentRun> runs;
  runs.push_back({"Fig 6(a): FB-Tao structure",
                  trace_scenario(StructureKind::kFbTao, num_jobs, seed), all});
  runs.push_back({"Fig 6(b): TPC-DS structure",
                  trace_scenario(StructureKind::kTpcDs, num_jobs, seed), all});
  const std::vector<ComparisonResult> results = run_matrix(runs, jobs);

  std::cout << "=== Figure 6: per-category improvement, trace-driven "
               "(improvement > 1 means Gurita faster) ===\n\n";
  for (std::size_t i = 0; i < runs.size(); ++i)
    print_panel(runs[i].label, results[i], num_jobs, seed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return gurita::run_main(argc, argv, run);
}
