// daemon-stream: the service daemon as a stream. The open-loop Poisson
// source feeds gurita on the daemon's default 4-pod fabric with compaction
// on; the run writes auto-checkpoints, halts after half of them, and a
// second daemon finishes it with recover(). Per-event allocation work is
// small, so the pauses, compactions and snapshot writes and reads dominate.
#include <unistd.h>

#include <filesystem>

#include "exp/runner.h"
#include "service/daemon.h"
#include "snapshot/snapshot.h"
#include "workload/open_loop.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace service = gurita::service;

constexpr int kPods = 4;
constexpr int kHosts = kPods * kPods * kPods / 4;
/// The job stream is one fixed draw; the run's seed only salts ECMP, so
/// every seed offers the same jobs over other paths. Streams differ several
/// times over in cost from one draw to the next, some even overloading
/// the daemon into shedding, which would swamp any program change.
constexpr std::uint64_t kStreamSeed = 2019;
constexpr double kLoad = 0.9;
/// The trace generator's Table-1 mix without categories VI and VII. On 16
/// hosts one job of 100 GB or more holds hundreds of flows for thousands of
/// sim-seconds; its calendar re-keys then trip the daemon's overload
/// watermark, and the run measures shedding instead of streaming.
const std::vector<double> kCategoryWeights = {0.36, 0.26, 0.18, 0.08,
                                              0.07, 0.0,  0.0};
constexpr std::uint64_t kFullJobs = 400;
constexpr std::uint64_t kTinyJobs = 40;
/// Auto-checkpoints over the expected length of the stream; the first run
/// halts after kHaltAfter of them and recover() writes the rest. Each one
/// re-serializes the whole result ledger (megabytes), so many more of them
/// make the run a file-writing benchmark whose time swings with the disk.
constexpr int kCheckpoints = 4;
constexpr int kHaltAfter = 2;

struct Round : RoundTotals {
  double run_s = 0;
  double recover_s = 0;
  double checkpoint_bytes = 0;
  double checkpoints = 0;
  double compactions = 0;
  double admitted = 0;
  double peak_live_jobs = 0;
  double peak_active_flows = 0;
};

service::DaemonOptions base_options(const RunOptions& opts,
                                    std::uint64_t jobs) {
  service::DaemonOptions o;
  o.scheduler = "gurita";
  o.fat_tree_k = kPods;
  o.ecmp_salt = gurita::derive_run_seed(opts.seed, "ecmp", 0, 0);
  o.open_loop.shape.seed =
      gurita::derive_run_seed(kStreamSeed, "daemon-stream", 0, 0);
  o.open_loop.arrivals = gurita::ArrivalPattern::kPoisson;
  o.open_loop.shape.category_weights = kCategoryWeights;
  o.open_loop.load = kLoad;
  o.open_loop.service_rate = kHosts * o.link_capacity;
  o.max_jobs = jobs;
  o.poll_signals = false;
  return o;
}

/// Sim-time cadence that spreads kCheckpoints over the expected stream.
gurita::Time checkpoint_cadence(const service::DaemonOptions& o) {
  gurita::OpenLoopGenerator::Config config = o.open_loop;
  config.shape.num_hosts = kHosts;
  const gurita::OpenLoopGenerator probe(config);
  return static_cast<double>(o.max_jobs) * probe.mean_interarrival() /
         kCheckpoints;
}

Round run_round(const RunOptions& opts, const std::string& ckpt_path,
                FingerprintBook& book, Tally& tally) {
  const std::uint64_t jobs = opts.size == "tiny" ? kTinyJobs : kFullJobs;
  Round round;
  service::DaemonReport report;
  tally.attempted += jobs;
  try {
    Clock::time_point t = Clock::now();
    service::DaemonOptions options = base_options(opts, jobs);
    if (opts.daemon_uninterrupted) {
      service::Daemon daemon(options);
      round.setup_s = seconds_since(t);
      t = Clock::now();
      report = daemon.run();
      round.run_s = seconds_since(t);
    } else {
      options.checkpoint_path = ckpt_path;
      options.checkpoint_every = checkpoint_cadence(options);
      service::DaemonOptions halting = options;
      halting.halt_after_checkpoints = kHaltAfter;
      bool halted = false;
      {
        service::Daemon first(std::move(halting));
        round.setup_s = seconds_since(t);
        t = Clock::now();
        try {
          (void)first.run();
        } catch (const gurita::snapshot::HaltedError&) {
          halted = true;
        }
        round.run_s = seconds_since(t);
      }
      if (!halted) {
        tally.fail(jobs, "gurita: the stream ended before the halt");
        return round;
      }
      round.checkpoint_bytes =
          static_cast<double>(std::filesystem::file_size(ckpt_path));
      t = Clock::now();
      service::Daemon second(std::move(options));
      round.setup_s += seconds_since(t);
      t = Clock::now();
      report = second.recover(ckpt_path);
      round.recover_s = seconds_since(t);
    }
  } catch (const std::exception& e) {
    tally.fail(jobs, std::string("gurita: ") + e.what());
    return round;
  }

  round.wall_s = round.run_s + round.recover_s;
  round.gurita_wall_s = round.wall_s;
  round.checkpoints = static_cast<double>(report.checkpoints);
  round.compactions = static_cast<double>(report.compactions);
  round.admitted = static_cast<double>(report.admitted);
  round.peak_live_jobs = static_cast<double>(report.peak_live_jobs);
  round.peak_active_flows = static_cast<double>(report.peak_active_flows);
  const gurita::SimResults& results = report.comparison.results.at("gurita");
  round.events = static_cast<double>(results.events);
  round.jobs = static_cast<double>(results.jobs.size());
  std::uint64_t failed_jobs = 0;
  for (const gurita::SimResults::JobResult& job : results.jobs)
    if (job.failed) ++failed_jobs;
  std::string why;
  if (report.admitted != jobs || results.jobs.size() != jobs) {
    tally.fail(jobs, "gurita: admitted " + std::to_string(report.admitted) +
                         ", shed " + std::to_string(report.shed_total) +
                         " and finished " +
                         std::to_string(results.jobs.size()) + " of " +
                         std::to_string(jobs) + " jobs");
  } else if (!book.check("gurita", fingerprint(results), why)) {
    tally.fail(jobs, why);
  } else if (report.shed_total + failed_jobs > 0) {
    tally.fail(report.shed_total + failed_jobs,
               "gurita: " + std::to_string(report.shed_total) + " shed, " +
                   std::to_string(failed_jobs) + " failed");
  }
  return round;
}

}  // namespace

Values run_daemon_stream(const RunOptions& opts, FingerprintBook& book,
                         Tally& tally) {
  const std::string ckpt_path = opts.scratch_dir + "/daemon-" +
                                std::to_string(::getpid()) + ".ckpt";
  // The daemon's Scheduler and Fabric cannot be wrapped, so a traced round
  // is an untraced one whose report counters and checkpoint file are read.
  std::vector<Round> plain;
  std::vector<Round> traced;
  run_rounds(opts, plain, traced,
             [&](bool) { return run_round(opts, ckpt_path, book, tally); });
  std::filesystem::remove(ckpt_path);

  Values v = end_to_end(plain);
  if (!opts.trace) return v;

  const auto med = [&](auto get) { return median_of(traced, get); };
  v["service.run_s"] = med([](const Round& r) { return r.run_s; });
  v["snapshot.recover_s"] = med([](const Round& r) { return r.recover_s; });
  v["snapshot.bytes"] = med([](const Round& r) { return r.checkpoint_bytes; });
  v["snapshot.checkpoints"] = med([](const Round& r) { return r.checkpoints; });
  v["service.compactions"] = med([](const Round& r) { return r.compactions; });
  v["service.admitted"] = med([](const Round& r) { return r.admitted; });
  v["service.peak_live_jobs"] =
      med([](const Round& r) { return r.peak_live_jobs; });
  v["service.peak_active_flows"] =
      med([](const Round& r) { return r.peak_active_flows; });
  v["obs.trace_overhead"] =
      ratio(med([](const Round& r) { return r.wall_s; }), v["host.raw_wall_s"]);
  return v;
}

}  // namespace perfbench
