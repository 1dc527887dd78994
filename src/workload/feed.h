// The job file format: a JSONL feed, one job per line (DESIGN.md §15).
//
//   {"id": 7, "arrival": 0.125, "deadline": 0.5,
//    "coflows": [{"flows": [{"src": 0, "dst": 5, "bytes": 1048576}]}],
//    "deps": [[]]}
//
// `deadline` is optional (0 / absent = none); `deps` is optional and
// defaults to fully independent coflows. Blank lines and lines starting
// with '#' are skipped. gurita_sim's --save-trace / --load-trace archive a
// workload in this format, and bench_service --feed streams one.
//
// Lines are decoded by the one JSON reader (common/json.h), so a hostile
// line costs a typed error, never a crash or an unchecked cast. Every bad
// line is collected — bad JSON, missing fields, non-integral or
// out-of-range ids and hosts, negative or non-finite arrivals, arrivals
// that go backwards, empty coflow lists, flows with non-positive sizes or
// out-of-range endpoints, duplicate job ids, dependency indices out of
// range or cyclic — and reported in ONE ConfigError naming each line,
// instead of dying on the first problem or (worse) admitting a half-parsed
// stream.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "coflow/job.h"

namespace gurita {

/// One feed line: the caller-visible job id plus the validated spec.
/// External ids are the identity jobs keep through admission, shedding,
/// compaction and export — the simulator's dense internal ids are renumbered
/// by compact() and never leave the daemon.
struct FeedJob {
  std::uint64_t id = 0;
  JobSpec spec;
};

/// Parses a JSONL feed from `in`. `context` names the source in error
/// messages ("feed jobs.jsonl"). When `num_hosts` > 0, flow endpoints are
/// additionally range-checked against it (pass 0 when the fabric is not
/// known yet). Aggregates every problem into one ConfigError
/// (fault/fault.h), each issue tagged "line N".
[[nodiscard]] std::vector<FeedJob> parse_feed(std::istream& in,
                                              const std::string& context,
                                              int num_hosts = 0);

/// parse_feed over a file; throws ConfigError if it cannot be opened.
[[nodiscard]] std::vector<FeedJob> load_feed(const std::string& path,
                                             int num_hosts = 0);

/// Writes `jobs` in the format parse_feed reads (doubles through
/// append_number, common/json.h, so a round-trip is value-exact).
void write_feed(std::ostream& out, const std::vector<FeedJob>& jobs);

/// Order-sensitive FNV-1a fingerprint of the whole feed (ids, arrivals,
/// deadlines, DAG shape, flow endpoints and sizes). Rides the daemon
/// checkpoint so --recover-from rejects a run resumed against a different
/// feed with a ConfigError instead of silently diverging.
[[nodiscard]] std::uint64_t feed_fingerprint(const std::vector<FeedJob>& jobs);

}  // namespace gurita
