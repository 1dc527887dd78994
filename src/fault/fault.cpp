#include "fault/fault.h"

#include <sstream>

#include "common/rng.h"

namespace gurita {

Time RetryPolicy::delay(int attempt, std::uint64_t seed,
                        std::uint64_t stream) const {
  const int level = attempt < 1 ? 1 : attempt;
  Time d = base_delay;
  if (backoff == Backoff::kExponential) {
    for (int i = 1; i < level; ++i) {
      d *= multiplier;
      if (max_delay > 0 && d >= max_delay) break;
    }
  }
  if (max_delay > 0 && d > max_delay) d = max_delay;
  if (jitter > 0) {
    // Keyed jitter: one throwaway generator seeded from (seed, stream,
    // attempt). No shared stream state, so the delay of (flow f, attempt a)
    // is a pure function — independent of how many other flows retried
    // first, which is what keeps retry timing deterministic under any
    // fault interleaving.
    Rng rng(seed ^ (stream * 0x9e3779b97f4a7c15ULL) ^
            (static_cast<std::uint64_t>(level) * 0xbf58476d1ce4e5b9ULL));
    d += d * jitter * rng.next_double();
  }
  return d;
}

std::string ConfigError::format(const std::string& context,
                                const std::vector<Issue>& issues) {
  std::ostringstream os;
  os << context << ": " << issues.size()
     << (issues.size() == 1 ? " issue" : " issues");
  for (const Issue& issue : issues)
    os << "\n  " << issue.where << ": " << issue.what;
  return os.str();
}

ConfigError::ConfigError(const std::string& context, std::vector<Issue> issues)
    : std::logic_error(format(context, issues)), issues_(std::move(issues)) {}

}  // namespace gurita
