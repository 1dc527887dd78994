// Tiny command-line flag parser for bench binaries:
//   ./bench_fig7 --num-jobs 300 --seed 7 --pods 8 --jobs 4
// Unknown flags throw (reject_unread), so typos fail loudly.
//
// Conventions shared by every driver: `--num-jobs` sizes the workload,
// `--seed` picks the trace seed, and `--jobs N` sets the worker-thread
// count of the parallel experiment runner (resolve_jobs() in exp/runner.h;
// the GURITA_JOBS environment variable is the flagless default, N = 0
// means all hardware threads). Results are bit-identical at any N.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gurita {

/// Strict full-token numeric parses: the whole token must be consumed, so
/// trailing garbage ("4x8", "1.5.2", "7 beta") is an error instead of a
/// silent truncation. Throw std::invalid_argument naming the offending
/// token. The Args getters below and every bench list flag build on these.
[[nodiscard]] int parse_int_strict(const std::string& text);
[[nodiscard]] std::uint64_t parse_u64_strict(const std::string& text);
[[nodiscard]] double parse_double_strict(const std::string& text);

/// Parses a comma-separated integer list ("1,2,8"). Every token is
/// validated fully before anything is accepted; on a bad token (including
/// an empty one, or an empty list) throws std::invalid_argument naming the
/// offending token — never a silently truncated prefix of the list.
[[nodiscard]] std::vector<int> parse_int_list(const std::string& csv);

class Args {
 public:
  /// Parses "--key value" pairs and bare "--flag" booleans (a flag followed
  /// by another flag, or by nothing, stores the empty string — read it back
  /// with get_bool/has). Throws std::logic_error on malformed input, and
  /// ConfigError (fault/fault.h) listing *every* flag that was defined more
  /// than once — repeated flags are a silent last-write-wins trap in long
  /// sweep invocations, so they fail loudly instead.
  Args(int argc, char** argv);

  [[nodiscard]] int get_int(const std::string& key, int fallback) const;
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  /// Boolean flag: absent → fallback; bare "--flag" → true; otherwise the
  /// value must be "true"/"1" or "false"/"0".
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;
  [[nodiscard]] bool has(const std::string& key) const;

  /// Throws ConfigError naming, in sorted order, every parsed flag that no
  /// getter or has() has looked up. A driver calls it once it has read
  /// every flag it takes (the apply_*_flags helpers below included) and
  /// before it simulates anything, so a typo such as --num-job or
  /// --fault-host-rat fails instead of running the defaults.
  void reject_unread() const;

 private:
  struct Value {
    std::string text;
    mutable bool read = false;  ///< looked up by a getter or has()
  };
  /// The flag's value, marked read; nullptr when the flag is absent.
  [[nodiscard]] const std::string* lookup(const std::string& key) const;

  std::map<std::string, Value> values_;
};

/// A driver's whole main: parses argv into Args and returns `body(args)`.
/// A snapshot::HaltedError (the deliberate checkpoint-halt crash) prints
/// "<program>: <what>" and returns 75, so a caller can assert the halt and
/// then resume; any other exception — a ConfigError for an unknown,
/// repeated or malformed flag included — prints "<program>: error: <what>"
/// and returns 1 instead of aborting through std::terminate. <program> is
/// argv[0]'s file name.
int run_main(int argc, char** argv, int (*body)(const Args&));

struct ExperimentConfig;

/// Applies the shared fault-injection flags to `config.faults`:
///   --faults                      enable with the config's current rates
///   --fault-host-rate R           host down/up pairs per simulated second
///   --fault-link-rate R           link down/up pairs per second
///   --fault-straggler-rate R      straggler windows per second
///   --fault-state-loss-rate R     scheduler-state losses per second
///   --fault-horizon T             inject faults in [0, T) seconds
///   --fault-downtime T            mean crash/flap outage (seconds)
///   --fault-straggle T            mean straggler window (seconds)
///   --fault-straggle-factor F     surviving rate fraction while slow, (0,1)
///   --fault-retry fixed|exponential   backoff shape
///   --fault-retry-base T          base retry delay (seconds)
///   --fault-retry-multiplier M    exponential growth per attempt
///   --fault-retry-max-delay T     backoff cap (seconds)
///   --fault-retry-jitter J        max jitter fraction added to each delay
///   --fault-retry-max-attempts N  aborts beyond this fail the job
/// Any of these flags implies --faults. Throws std::logic_error on an
/// unknown --fault-retry value. Reads every flag of the table, so
/// Args::reject_unread then names any other "--fault-*" flag.
void apply_fault_flags(const Args& args, ExperimentConfig& config);

/// Applies the shared checkpoint/resume flags to `config.checkpoint`
/// (experiment.h; DESIGN.md §12):
///   --checkpoint-every T       snapshot cadence in simulated seconds (> 0)
///   --checkpoint-dir D         artifact directory (one .ckpt per shard,
///                              final once the shard finished)
///   --resume-from D            resume from D's artifacts (implies dir D)
///   --checkpoint-halt-after N  crash on purpose after N snapshots (> 0);
///                              drivers catch HaltedError and exit 75
/// Throws ConfigError aggregating every problem: --checkpoint-every
/// without a directory, a non-positive cadence,
/// --checkpoint-halt-after without --checkpoint-every, and conflicting
/// --checkpoint-dir/--resume-from directories.
void apply_checkpoint_flags(const Args& args, ExperimentConfig& config);

/// Applies the shared timeline/diagnostics telemetry flags to `config.obs`
/// (experiment.h; DESIGN.md §14):
///   --timeline            attach the deterministic interval sampler at the
///                         default cadence (0.05 simulated seconds)
///   --timeline-every T    sampling cadence in simulated seconds (> 0;
///                         implies --timeline)
///   --diagnostics         non-deterministic run health (allocator work,
///                         memory peaks) in the summary JSON
/// Throws ConfigError on a non-positive cadence.
void apply_timeline_flags(const Args& args, ExperimentConfig& config);

}  // namespace gurita
