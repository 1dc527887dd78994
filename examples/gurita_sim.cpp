// gurita_sim — command-line front-end for the whole library: generate (or
// load) a workload, run it under any scheduler on any fat-tree size, and
// print (or export) the results.
//
//   ./gurita_sim --scheduler gurita --structure tpcds --num-jobs 200 --seed 7
//   ./gurita_sim --scheduler pfs --arrivals bursty --pods 16
//   ./gurita_sim --save-trace w.jsonl    # generate + archive (JSONL feed)
//   ./gurita_sim --load-trace w.jsonl --scheduler aalo
//   ./gurita_sim --csv-out jobs.csv      # per-job results CSV
//
// A saved workload is the JSONL job feed (workload/feed.h), ids 0..n-1, so
// bench_service --feed can stream the same file.
#include <fstream>
#include <iostream>

#include "common/atomic_file.h"
#include "exp/args.h"
#include "exp/experiment.h"
#include "exp/registry.h"
#include "metrics/extended.h"
#include "metrics/report.h"
#include "workload/feed.h"

namespace {

int run(const gurita::Args& args) {
  using namespace gurita;

  const std::string scheduler_name = args.get_string("scheduler", "gurita");
  const int pods = args.get_int("pods", 8);

  ExperimentConfig config;
  config.fat_tree_k = pods;
  config.trace.num_jobs = args.get_int("num-jobs", 200);
  config.trace.seed = args.get_u64("seed", 7);
  config.trace.structure =
      structure_from_string(args.get_string("structure", "mixed"));
  const std::string arrivals = args.get_string("arrivals", "poisson");
  if (arrivals == "bursty") {
    config.trace.arrivals = ArrivalPattern::kBursty;
  } else if (arrivals == "poisson") {
    config.trace.arrivals = ArrivalPattern::kPoisson;
  } else {
    std::cerr << "unknown --arrivals value: " << arrivals << "\n";
    return 1;
  }
  const std::string load_path = args.get_string("load-trace", "");
  const std::string save_path = args.get_string("save-trace", "");
  const std::string csv_path = args.get_string("csv-out", "");
  args.reject_unread();

  const FatTree fabric(FatTree::Config{config.fat_tree_k, config.link_capacity});
  config.trace.num_hosts = fabric.num_hosts();

  std::vector<JobSpec> jobs;
  if (args.has("load-trace")) {
    for (FeedJob& job : load_feed(load_path, fabric.num_hosts()))
      jobs.push_back(std::move(job.spec));
    std::cout << "loaded " << jobs.size() << " jobs from trace\n";
  } else {
    jobs = generate_trace(config.trace);
  }
  if (args.has("save-trace")) {
    std::vector<FeedJob> feed(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) feed[i] = {i, jobs[i]};
    write_file_atomic(save_path, /*binary=*/false,
                      [&](std::ostream& out) { write_feed(out, feed); });
    std::cout << "saved " << jobs.size() << " jobs to " << save_path << "\n";
  }

  const auto scheduler = make_scheduler(scheduler_name);
  const SimResults results = run_one(config, jobs, *scheduler);

  JctCollector jct;
  jct.add(results);
  CctCollector cct;
  cct.add(results);
  const auto slowdowns = job_slowdowns(jobs, results, config.link_capacity);
  Samples slow;
  for (double s : slowdowns) slow.add(s);

  std::cout << "\nscheduler: " << scheduler_name << "   fabric: " << pods
            << "-pod fat-tree (" << fabric.num_hosts() << " hosts)\n\n";
  TextTable summary({"metric", "value"});
  summary.add_row({"jobs", std::to_string(results.jobs.size())});
  summary.add_row({"coflows", std::to_string(results.coflows.size())});
  summary.add_row({"avg JCT (s)", TextTable::num(jct.average_jct())});
  summary.add_row({"p95 JCT (s)", TextTable::num(jct.p95_jct())});
  summary.add_row({"avg CCT (s)", TextTable::num(cct.average_cct())});
  summary.add_row({"mean slowdown (x bound)", TextTable::num(slow.mean())});
  summary.add_row({"p95 slowdown", TextTable::num(slow.percentile(95))});
  summary.add_row(
      {"slowdown fairness (Jain)", TextTable::num(jain_fairness(slowdowns))});
  summary.add_row({"makespan (s)", TextTable::num(results.makespan)});
  std::cout << summary.to_string() << "\n";

  TextTable by_cat({"category", "jobs", "avg JCT (s)"});
  for (int c = 0; c < kNumCategories; ++c) {
    if (jct.jobs(c) == 0) continue;
    by_cat.add_row({category_name(c), std::to_string(jct.jobs(c)),
                    TextTable::num(jct.average_jct(c))});
  }
  std::cout << by_cat.to_string();

  if (args.has("csv-out")) {
    write_file_atomic(csv_path, /*binary=*/false, [&](std::ostream& csv) {
      csv << "job,arrival,finish,jct,total_bytes,category,stages,slowdown\n";
      for (std::size_t i = 0; i < results.jobs.size(); ++i) {
        const auto& j = results.jobs[i];
        csv << j.id << "," << j.arrival << "," << j.finish << "," << j.jct()
            << "," << j.total_bytes << ","
            << category_name(category_of(j.total_bytes)) << "," << j.num_stages
            << "," << slowdowns[i] << "\n";
      }
    });
    std::cout << "\nper-job results written to " << csv_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return gurita::run_main(argc, argv, run);
}
