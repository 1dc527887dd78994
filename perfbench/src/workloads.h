// The benchmark's workloads. Each runs rounds of identical work, derived
// from the run's seed, until the run's time is spent, checks every
// simulated result, and returns its metrics by name (end-to-end metrics
// from the untraced rounds, per-layer metrics from the traced ones).
#pragma once

#include <map>
#include <string>

#include "bench.h"

namespace perfbench {

using Values = std::map<std::string, double>;

/// fat8-trace and fat48-bursty: the paper's five schedulers, one after
/// another on one thread, over the same generated jobs.
[[nodiscard]] bool is_batch_workload(const std::string& name);
[[nodiscard]] Values run_batch(const RunOptions& opts, FingerprintBook& book,
                               Tally& tally);

/// daemon-stream: the service daemon under gurita, halted after a number
/// of auto-checkpoints and finished by recover().
[[nodiscard]] Values run_daemon_stream(const RunOptions& opts,
                                       FingerprintBook& book, Tally& tally);

}  // namespace perfbench
