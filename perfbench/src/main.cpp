// End-to-end benchmark of the Gurita reproduction.
//
//   perfbench --workload fat8-trace|fat48-bursty|daemon-stream --seed N
//             --seconds S --trace 0|1 [--size full|tiny]
//             [--fingerprints FILE] [--scratch DIR] [--daemon-uninterrupted]
//
// Runs rounds of the workload's work until S seconds have passed, checks
// every simulated result against the recorded fingerprints in FILE, and
// prints as its last line one JSON object: correct, attempted, failed and
// the metrics (end-to-end with --trace 0, per-layer with --trace 1). Every
// simulated cell also prints a "fingerprint" line, whose fields after the
// first are a row of FILE. perfbench/run.py builds and runs this binary.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "flowsim/allocator.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
const MetricSpec kEndToEnd[] = {
    {"wall_s", "s"},        {"events_per_s", "1/s"}, {"gurita_wall_s", "s"},
    {"jobs_per_s", "1/s"},  {"setup_s", "s"},        {"peak_rss_mb", "MiB"},
};

const MetricSpec kPerLayer[] = {
    {"flowsim.alloc_converge_s", "s"},
    {"flowsim.flows_solved", "count"},
    {"flowsim.flows_per_allocation", "ratio"},
    {"flowsim.alloc_frontier_s", "s"},
    {"flowsim.dirty_links", "count"},
    {"flowsim.components_solved", "count"},
    {"flowsim.calendar_drain_s", "s"},
    {"flowsim.flow_touches", "count"},
    {"flowsim.dag_release_s", "s"},
    {"flowsim.submit_s", "s"},
    {"flowsim.self_s", "s"},
    {"topology.route_s", "s"},
    {"topology.route_calls", "count"},
    {"topology.build_s", "s"},
    {"workload.gen_s", "s"},
    {"core.gurita.assign_s", "s"},
    {"core.gurita.tick_s", "s"},
    {"core.gurita.tick_change_ratio", "ratio"},
    {"core.gurita.flows_solved", "count"},
    {"sched.pfs.assign_s", "s"},
    {"sched.pfs.tick_s", "s"},
    {"sched.pfs.tick_change_ratio", "ratio"},
    {"sched.pfs.wall_s", "s"},
    {"sched.baraat.assign_s", "s"},
    {"sched.baraat.tick_s", "s"},
    {"sched.baraat.tick_change_ratio", "ratio"},
    {"sched.baraat.wall_s", "s"},
    {"sched.stream.assign_s", "s"},
    {"sched.stream.tick_s", "s"},
    {"sched.stream.tick_change_ratio", "ratio"},
    {"sched.stream.wall_s", "s"},
    {"sched.aalo.assign_s", "s"},
    {"sched.aalo.tick_s", "s"},
    {"sched.aalo.tick_change_ratio", "ratio"},
    {"sched.aalo.wall_s", "s"},
    {"snapshot.checkpoints", "count"},
    {"snapshot.bytes", "bytes"},
    {"snapshot.recover_s", "s"},
    {"service.run_s", "s"},
    {"service.compactions", "count"},
    {"service.admitted", "count"},
    {"service.peak_live_jobs", "count"},
    {"service.peak_active_flows", "count"},
    {"obs.trace_overhead", "ratio"},
};

const char* const kUsage =
    "usage: perfbench --workload fat8-trace|fat48-bursty|daemon-stream "
    "--seed N --seconds S --trace 0|1 [--size full|tiny] "
    "[--fingerprints FILE] [--scratch DIR] [--daemon-uninterrupted]";

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  const unsigned long long v = std::stoull(text, &used);
  if (used != text.size() || text.empty() || text[0] == '-')
    throw std::invalid_argument(flag + " expects a whole number, got '" +
                                text + "'");
  return v;
}

struct Cli {
  RunOptions run;
  std::string fingerprints;
};

Cli parse(int argc, char** argv) {
  Cli cli;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--daemon-uninterrupted") {
      cli.run.daemon_uninterrupted = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      cli.run.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      cli.run.seed = parse_u64(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      cli.run.seconds = static_cast<double>(parse_u64(flag, value));
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace expects 0 or 1");
      cli.run.trace = value == "1";
      have_trace = true;
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny")
        throw std::invalid_argument("--size expects full or tiny");
      cli.run.size = value;
    } else if (flag == "--fingerprints") {
      cli.fingerprints = value;
    } else if (flag == "--scratch") {
      cli.run.scratch_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!(have_workload && have_seed && have_seconds && have_trace))
    throw std::invalid_argument(
        "--workload, --seed, --seconds and --trace are required");
  if (!is_batch_workload(cli.run.workload) &&
      cli.run.workload != "daemon-stream")
    throw std::invalid_argument("unknown workload " + cli.run.workload);
  return cli;
}

/// Recorded fingerprints of (size, workload, seed), keyed by cell. Rows are
/// "size workload seed cell hex", tab-separated; '#' starts a comment.
std::map<std::string, std::uint64_t> load_fingerprints(const std::string& path,
                                                       const RunOptions& run) {
  std::map<std::string, std::uint64_t> out;
  if (path.empty()) return out;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read fingerprints " + path);
  const std::string seed = std::to_string(run.seed);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string size, workload, row_seed, cell, hex;
    if (!(row >> size >> workload >> row_seed >> cell >> hex))
      throw std::runtime_error("malformed fingerprint row: " + line);
    if (size == run.size && workload == run.workload && row_seed == seed)
      out[cell] = std::stoull(hex, nullptr, 16);
  }
  return out;
}

void print_metrics(std::ostream& out, const MetricSpec* specs, std::size_t n,
                   const Values& values, bool required) {
  out << '{';
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = values.find(specs[i].name);
    if (it == values.end() && required)
      throw std::logic_error(std::string("metric not measured: ") +
                             specs[i].name);
    // A layer the workload does not exercise reads 0.
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out << (i ? ", " : "") << '"' << specs[i].name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << specs[i].unit << "\"}";
  }
  out << '}';
}

int run(int argc, char** argv) {
  Cli cli;
  try {
    cli = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n" << kUsage << "\n";
    return 2;
  }
  RunOptions& opts = cli.run;

  const char* allocator = gurita::to_string(gurita::default_allocator_kind());
  std::cout << "# perfbench workload=" << opts.workload << " size=" << opts.size
            << " seed=" << opts.seed << " build=" << PERFBENCH_BUILD_TYPE
            << " compiler=\"" << __VERSION__ << "\" allocator=" << allocator
            << " hardware_threads=" << std::thread::hardware_concurrency()
            << std::endl;
#ifndef __OPTIMIZE__
  std::cerr << "perfbench: refusing to measure an unoptimized build\n";
  return 2;
#endif
  if (gurita::default_allocator_kind() != gurita::AllocatorKind::kIncremental) {
    std::cerr << "perfbench: GURITA_ALLOCATOR/ALLOCATOR forces the '"
              << allocator
              << "' allocator; refusing to measure a non-default program\n";
    return 2;
  }

  std::filesystem::create_directories(opts.scratch_dir);
  FingerprintBook book(load_fingerprints(cli.fingerprints, opts));
  Tally tally;
  const Values values = is_batch_workload(opts.workload)
                            ? run_batch(opts, book, tally)
                            : run_daemon_stream(opts, book, tally);

  for (const auto& [cell, fp] : book.seen())
    std::cout << "fingerprint\t" << opts.size << '\t' << opts.workload << '\t'
              << opts.seed << '\t' << cell << '\t' << hex(fp)
              << (book.recorded(cell) ? "" : "\t(unrecorded)") << '\n';
  std::cout << "# host raw_wall_s=" << values.at("host.raw_wall_s")
            << " probe_s=" << values.at("host.probe_s")
            << " reference_probe_s=" << kReferenceProbeS << '\n';
  for (const std::string& problem : tally.problems)
    std::cout << "FAILED " << problem << '\n';

  std::ostringstream line;
  line << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << tally.attempted
       << ", \"failed\": " << tally.failed << ", \"metrics\": ";
  if (opts.trace)
    print_metrics(line, kPerLayer, std::size(kPerLayer), values, false);
  else
    print_metrics(line, kEndToEnd, std::size(kEndToEnd), values, true);
  line << '}';
  std::cout << line.str() << std::endl;
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
