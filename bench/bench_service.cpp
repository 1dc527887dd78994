// Open-horizon scheduler daemon driver (service/daemon.h, DESIGN.md §15):
// streaming admission behind a bounded queue, graceful drain on
// SIGTERM/SIGINT, periodic auto-checkpoints and crash recovery.
//
//   ./bench_service [--scheduler gurita] [--pods 4] [--num-jobs 500]
//     source (pick one):
//                   [--feed FILE.jsonl]      # JSONL job feed (workload/feed.h)
//                   [--arrival-pattern poisson|bursty] [--load 0.7]
//                   [--arrival-rate R]       # jobs/s; overrides --load
//                   [--seed 7]
//     admission control (an arrival that finds the queue full is shed):
//                   [--queue-cap 64]
//                   [--wm-flows-high N] [--wm-flows-low N]
//     maintenance:
//                   [--compact-every 0.25]   # sim s; 0 disables compaction
//                   [--checkpoint FILE] [--checkpoint-every T]
//                   [--halt-after N]         # crash sim: exit 75 after N ckpts
//                   [--recover-from FILE]    # resume a checkpointed run
//     drain:
//                   [--drain-deadline 60]    # wall s for the drain phase
//                   [--drain-after T]        # deterministic drain at sim T
//     telemetry:
//                   [--trace FILE] [--sample-every T]
//                   [--json FILE]            # machine-readable report
//
// Reports the p99 admission wait and the run's counters on stdout (the same
// flags give the same bytes) and the wall-clock events/sec on stderr and in
// --json. An unknown flag is an error. Exit codes: 0 success, 1
// failure/config error, 75 halted-on-purpose (resume with --recover-from).
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "common/atomic_file.h"
#include "exp/args.h"
#include "exp/export.h"
#include "metrics/report.h"
#include "service/daemon.h"
#include "service/signals.h"
#include "workload/feed.h"

namespace gurita::service {
namespace {

using Clock = std::chrono::steady_clock;

DaemonOptions options_from_args(const Args& args) {
  DaemonOptions options;
  options.scheduler = args.get_string("scheduler", "gurita");
  options.fat_tree_k = args.get_int("pods", 4);
  options.max_jobs = args.get_u64("num-jobs", 500);

  // Source selection: a feed is a verbatim arrival schedule, so the
  // open-loop shaping flags contradict it. Reject the combination with one
  // aggregated error instead of silently ignoring half the command line.
  const bool use_feed = args.has("feed");
  {
    std::vector<ConfigError::Issue> issues;
    for (const char* flag :
         {"arrival-rate", "arrival-pattern", "load", "seed"}) {
      if (use_feed && args.has(flag))
        issues.push_back({std::string("--") + flag,
                          "conflicts with --feed (the feed fixes arrivals)"});
    }
    if (!issues.empty()) throw ConfigError("bench_service flags", issues);
  }
  if (use_feed) {
    options.use_feed = true;
    const std::string path = args.get_string("feed", "");
    options.feed = load_feed(path);
  } else {
    const std::string pattern = args.get_string("arrival-pattern", "poisson");
    if (pattern == "poisson") {
      options.open_loop.arrivals = ArrivalPattern::kPoisson;
    } else if (pattern == "bursty") {
      options.open_loop.arrivals = ArrivalPattern::kBursty;
    } else {
      throw ConfigError("--arrival-pattern",
                        {{pattern, "expected poisson or bursty"}});
    }
    options.open_loop.shape.seed = args.get_u64("seed", 7);
    options.open_loop.load = args.get_double("load", 0.7);
    const double rate = args.get_double("arrival-rate", 0);
    if (rate > 0) options.open_loop.mean_interarrival = 1.0 / rate;
    const int hosts =
        options.fat_tree_k * options.fat_tree_k * options.fat_tree_k / 4;
    options.open_loop.service_rate = hosts * options.link_capacity;
  }

  options.queue_capacity =
      static_cast<std::size_t>(args.get_u64("queue-cap", 64));
  Watermarks& wm = options.watermarks;
  wm.active_flows_high = static_cast<std::size_t>(
      args.get_u64("wm-flows-high", wm.active_flows_high));
  wm.active_flows_low = static_cast<std::size_t>(
      args.get_u64("wm-flows-low", wm.active_flows_low));

  options.compact_every = args.get_double("compact-every", 0.25);
  options.checkpoint_path = args.get_string("checkpoint", "");
  options.checkpoint_every = args.get_double("checkpoint-every", 0);
  options.halt_after_checkpoints = args.get_int("halt-after", 0);
  options.drain_deadline_wall = args.get_double("drain-deadline", 60.0);
  options.drain_after_sim_time = args.get_double("drain-after", 0);
  options.sample_every = args.get_double("sample-every", 0);
  options.max_sim_time = args.get_double("max-sim-time",
                                         options.max_sim_time);
  if (args.has("trace") || options.sample_every > 0)
    options.trace_mask = obs::TraceRecorder::kDefaultKinds;
  return options;
}

int run(const Args& args) {
  const std::string recover_from = args.get_string("recover-from", "");
  const std::string trace_path = args.get_string("trace", "");
  const std::string json_path = args.get_string("json", "");

  DaemonOptions options = options_from_args(args);
  args.reject_unread();
  const std::string scheduler = options.scheduler;
  install_signal_handlers();

  Daemon daemon(std::move(options));
  const Clock::time_point start = Clock::now();
  DaemonReport report =
      recover_from.empty() ? daemon.run() : daemon.recover(recover_from);
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();

  const SimResults& results = report.comparison.results.at(scheduler);
  const double events_per_sec =
      wall > 0 ? static_cast<double>(results.events) / wall : 0;

  std::cout << "=== Open-horizon daemon run ===\n"
            << "scheduler: " << scheduler
            << (recover_from.empty() ? "" : "  (recovered)") << "\n\n";
  TextTable table({"metric", "value"});
  table.add_row({"admitted", std::to_string(report.admitted)});
  table.add_row({"completed", std::to_string(report.completed)});
  table.add_row({"shed (queue full)", std::to_string(report.shed_queue_full)});
  table.add_row({"shed (drain)", std::to_string(report.shed_drain)});
  table.add_row({"compactions", std::to_string(report.compactions)});
  table.add_row({"checkpoints", std::to_string(report.checkpoints)});
  table.add_row({"events", std::to_string(results.events)});
  table.add_row({"p99 admission wait (s)", TextTable::num(report.p99_wait)});
  table.add_row({"final sim time (s)", TextTable::num(report.final_sim_time)});
  table.add_row({"peak queue depth", std::to_string(report.peak_queue_depth)});
  table.add_row({"peak active flows",
                 std::to_string(report.peak_active_flows)});
  table.add_row({"peak live jobs", std::to_string(report.peak_live_jobs)});
  if (report.peak_state_bytes > 0)
    table.add_row({"peak state bytes",
                   std::to_string(report.peak_state_bytes)});
  table.add_row({"drain cause",
                 report.drain_cause != 0
                     ? "signal " + std::to_string(report.drain_cause)
                     : "natural/hook"});
  table.add_row({"drain deadline expired",
                 report.drain_deadline_expired ? "YES" : "no"});
  std::cout << table.to_string() << std::endl;
  std::cerr << "events/sec: " << TextTable::num(events_per_sec) << "\n";

  if (!trace_path.empty()) {
    const std::size_t records =
        export_traces({"service"}, {report.comparison}, trace_path);
    std::cout << records << " trace records -> " << trace_path << "\n";
  }

  if (!json_path.empty()) {
    write_file_atomic(json_path, /*binary=*/false, [&](std::ostream& out) {
      out.precision(17);
      out << "{\n  \"bench\": \"service\",\n"
          << "  \"scheduler\": \"" << scheduler << "\",\n"
          << "  \"recovered\": " << (recover_from.empty() ? "false" : "true")
          << ",\n"
          << "  \"admitted\": " << report.admitted << ",\n"
          << "  \"completed\": " << report.completed << ",\n"
          << "  \"shed_queue_full\": " << report.shed_queue_full << ",\n"
          << "  \"shed_drain\": " << report.shed_drain << ",\n"
          << "  \"compactions\": " << report.compactions << ",\n"
          << "  \"checkpoints\": " << report.checkpoints << ",\n"
          << "  \"events\": " << results.events << ",\n"
          << "  \"events_per_sec\": " << events_per_sec << ",\n"
          << "  \"p99_admission_wait\": " << report.p99_wait << ",\n"
          << "  \"final_sim_time\": " << report.final_sim_time << ",\n"
          << "  \"peak_queue_depth\": " << report.peak_queue_depth << ",\n"
          << "  \"peak_active_flows\": " << report.peak_active_flows << ",\n"
          << "  \"peak_live_jobs\": " << report.peak_live_jobs << ",\n"
          << "  \"peak_state_bytes\": " << report.peak_state_bytes << ",\n"
          << "  \"drain_cause\": " << report.drain_cause << ",\n"
          << "  \"drain_deadline_expired\": "
          << (report.drain_deadline_expired ? "true" : "false") << ",\n"
          << "  \"wall_seconds\": " << wall << "\n}\n";
    });
    std::cout << "report -> " << json_path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace gurita::service

// run_main exits 75 on a deliberate --halt-after crash (resume with
// --recover-from) and 1 on any other error.
int main(int argc, char** argv) {
  return gurita::run_main(argc, argv, gurita::service::run);
}
