// Shared parts of the end-to-end benchmark: run options, the fingerprint
// book every workload checks its simulated results against, operation
// accounting, and the round loop with its machine-speed probe.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "flowsim/simulator.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  /// Per-layer run: traced rounds interleaved with untraced ones.
  bool trace = false;
  /// "full" (what BENCHMARK.json measures) or "tiny" (the benchmark's own
  /// tests). Only full-size cells have recorded fingerprints.
  std::string size = "full";
  /// Directory for files a run leaves behind (daemon checkpoints, spans).
  std::string scratch_dir = ".";
  /// daemon-stream only: run the daemon without checkpoints or a halt, so a
  /// test can compare its fingerprint with the halted-and-recovered run's.
  bool daemon_uninterrupted = false;
};

/// Expected fingerprint per cell. Recorded cells come from the tracked
/// table; the first fingerprint of an unrecorded cell becomes its expected
/// value, so every later round (traced ones included) must repeat it.
class FingerprintBook {
 public:
  explicit FingerprintBook(std::map<std::string, std::uint64_t> recorded)
      : expected_(std::move(recorded)), recorded_(expected_) {}

  /// True when `fp` is the expected fingerprint of `cell`. On a mismatch,
  /// `why` names the cell and both values.
  bool check(const std::string& cell, std::uint64_t fp, std::string& why);

  [[nodiscard]] bool recorded(const std::string& cell) const {
    return recorded_.count(cell) != 0;
  }
  /// Every cell seen in this run with the first fingerprint it produced.
  [[nodiscard]] const std::map<std::string, std::uint64_t>& seen() const {
    return seen_;
  }

 private:
  std::map<std::string, std::uint64_t> expected_;
  std::map<std::string, std::uint64_t> recorded_;
  std::map<std::string, std::uint64_t> seen_;
};

/// Operation accounting behind the result line's attempted/failed counts.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per failure, naming the cell.
  std::vector<std::string> problems;

  void fail(std::uint64_t ops, std::string why) {
    failed += ops;
    problems.push_back(std::move(why));
  }
};

/// Sixteen lower-case hex digits.
[[nodiscard]] std::string hex(std::uint64_t v);

/// FNV-1a over the bit-exact per-job results, `events` and `makespan`.
[[nodiscard]] std::uint64_t fingerprint(const gurita::SimResults& results);

/// Median of a non-empty sample.
[[nodiscard]] double median(std::vector<double> values);

/// Median over rounds of `get(round)`.
template <typename Round, typename Get>
[[nodiscard]] double median_of(const std::vector<Round>& rounds, Get get) {
  std::vector<double> values;
  values.reserve(rounds.size());
  for (const Round& r : rounds) values.push_back(get(r));
  return median(std::move(values));
}

/// num / den, or 0 when nothing was measured.
[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0 ? num / den : 0;
}

/// Peak resident set of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Seconds this machine takes for a fixed probe: three laps of a dependent
/// walk around a 4 MiB random cycle, with a square root per step. No code
/// of the program under test runs in it, so only the machine's speed moves
/// it.
[[nodiscard]] double machine_probe_s();

/// machine_probe_s() on the machine the baseline was recorded on (4-core
/// Xeon at 2.1 GHz). End-to-end times are reported at that speed: a round's
/// host seconds are scaled by kReferenceProbeS / probe. A shared host's
/// speed drifts by tens of percent over minutes and moves the probe and
/// the program alike, so the drift cancels, while any change to the
/// program shows in full.
inline constexpr double kReferenceProbeS = 0.100;

/// What every round of every workload reports for the end-to-end metrics.
struct RoundTotals {
  double setup_s = 0;
  double wall_s = 0;  ///< host seconds of the round's measured phase
  double gurita_wall_s = 0;
  double events = 0;
  double jobs = 0;    ///< finished jobs
  double scale = 1;   ///< kReferenceProbeS / probe seconds (run_rounds)
};

/// The end-to-end metrics at the reference speed: medians over untraced
/// rounds. Also host.raw_wall_s and host.probe_s, unscaled, for the run's
/// host line.
template <typename Round>
[[nodiscard]] std::map<std::string, double> end_to_end(
    const std::vector<Round>& rounds) {
  std::map<std::string, double> v;
  v["wall_s"] =
      median_of(rounds, [](const RoundTotals& r) { return r.wall_s * r.scale; });
  v["gurita_wall_s"] = median_of(
      rounds, [](const RoundTotals& r) { return r.gurita_wall_s * r.scale; });
  v["events_per_s"] = median_of(rounds, [](const RoundTotals& r) {
    return ratio(r.events, r.wall_s * r.scale);
  });
  v["jobs_per_s"] = median_of(rounds, [](const RoundTotals& r) {
    return ratio(r.jobs, r.wall_s * r.scale);
  });
  v["setup_s"] = median_of(
      rounds, [](const RoundTotals& r) { return r.setup_s * r.scale; });
  v["peak_rss_mb"] = peak_rss_mb();
  v["host.raw_wall_s"] =
      median_of(rounds, [](const RoundTotals& r) { return r.wall_s; });
  v["host.probe_s"] = median_of(
      rounds, [](const RoundTotals& r) { return kReferenceProbeS / r.scale; });
  return v;
}

/// Rounds every workload runs at least, whatever the time budget.
inline constexpr std::size_t kMinRounds = 3;

/// Calls run(false) for an untraced round, and then run(true) for a traced
/// one when opts.trace, until opts.seconds have passed and at least
/// kMinRounds untraced rounds ran. Untraced rounds are bracketed by machine
/// probes; each gets `scale` = kReferenceProbeS / the probes' mean.
template <typename Round, typename Run>
void run_rounds(const RunOptions& opts, std::vector<Round>& plain,
                std::vector<Round>& traced, Run run) {
  (void)machine_probe_s();  // builds the probe's cycle outside the timing
  const Clock::time_point start = Clock::now();
  double before = machine_probe_s();
  while (plain.size() < kMinRounds || seconds_since(start) < opts.seconds) {
    Round round = run(false);
    const double after = machine_probe_s();
    round.scale = 2 * kReferenceProbeS / (before + after);
    plain.push_back(std::move(round));
    before = after;
    if (opts.trace) {
      traced.push_back(run(true));
      before = machine_probe_s();
    }
  }
}

}  // namespace perfbench
