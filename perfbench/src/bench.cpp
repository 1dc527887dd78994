#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

volatile double probe_sink = 0;

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool FingerprintBook::check(const std::string& cell, std::uint64_t fp,
                            std::string& why) {
  seen_.emplace(cell, fp);
  const auto [it, fresh] = expected_.emplace(cell, fp);
  if (fresh || it->second == fp) return true;
  why = cell + ": fingerprint " + hex(fp) + ", expected " + hex(it->second) +
        (recorded(cell) ? " (recorded)" : " (first round)");
  return false;
}

std::uint64_t fingerprint(const gurita::SimResults& results) {
  std::uint64_t h = 14695981039346656037ull;
  for (const gurita::SimResults::JobResult& job : results.jobs) {
    h = fnv(h, job.id.value());
    h = fnv(h, std::bit_cast<std::uint64_t>(job.arrival));
    h = fnv(h, std::bit_cast<std::uint64_t>(job.finish));
    h = fnv(h, job.failed ? 1 : 0);
  }
  h = fnv(h, results.events);
  return fnv(h, std::bit_cast<std::uint64_t>(results.makespan));
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double machine_probe_s() {
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> order(1u << 20);
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(order[i], order[x % (i + 1)]);
    }
    std::vector<std::uint32_t> cycle(order.size());
    for (std::size_t i = 0; i < order.size(); ++i)
      cycle[order[i]] = order[(i + 1) % order.size()];
    return cycle;
  }();
  const Clock::time_point start = Clock::now();
  std::uint32_t at = 0;
  double sum = 0;
  for (std::size_t step = 0; step < 3 * next.size(); ++step) {
    at = next[at];
    sum += std::sqrt(static_cast<double>(at));
  }
  const double seconds = seconds_since(start);
  probe_sink = sum;  // keeps the walk from being optimized away
  return seconds;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
