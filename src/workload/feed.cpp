#include "workload/feed.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>
#include <set>

#include "common/fnv.h"
#include "common/json.h"
#include "fault/fault.h"

namespace gurita {

namespace {

/// Decodes one parsed feed line. Throws std::logic_error (a JsonError for
/// a missing, mistyped or out-of-range field; validate()'s error for a
/// structural one) naming the first problem; parse_feed owns the
/// cross-line checks (duplicate ids, arrival order).
FeedJob decode_job(const JsonValue& root, int num_hosts) {
  FeedJob job;
  JobSpec& spec = job.spec;
  job.id = root.at("id").as_u64();
  spec.arrival_time = root.at("arrival").as_double();
  if (!std::isfinite(spec.arrival_time) || spec.arrival_time < 0)
    throw JsonError("arrival time must be finite and non-negative, got " +
                    root.at("arrival").text);
  if (const JsonValue* deadline = root.find("deadline")) {
    spec.deadline = deadline->as_double();
    if (!std::isfinite(spec.deadline) || spec.deadline < 0)
      throw JsonError("deadline must be finite and non-negative, got " +
                      deadline->text);
  }
  for (const JsonValue& cv : root.at("coflows").array()) {
    CoflowSpec& coflow = spec.coflows.emplace_back();
    for (const JsonValue& fv : cv.at("flows").array()) {
      FlowSpec& flow = coflow.flows.emplace_back();
      flow.src_host = fv.at("src").as_int();
      flow.dst_host = fv.at("dst").as_int();
      flow.size = fv.at("bytes").as_double();
      if (!std::isfinite(flow.size))
        throw JsonError("flow size must be finite, got " +
                        fv.at("bytes").text);
    }
  }
  if (const JsonValue* deps = root.find("deps")) {
    for (const JsonValue& dv : deps->array()) {
      std::vector<int>& entry = spec.deps.emplace_back();
      for (const JsonValue& d : dv.array()) entry.push_back(d.as_int());
    }
  } else {
    spec.deps.assign(spec.coflows.size(), {});
  }
  // The structural gate submit() applies (coflow and flow counts, sizes,
  // endpoints, dependency range and acyclicity), surfaced here with the
  // line number instead of deep inside a run.
  validate(spec, num_hosts > 0 ? num_hosts : std::numeric_limits<int>::max());
  return job;
}

}  // namespace

std::vector<FeedJob> parse_feed(std::istream& in, const std::string& context,
                                int num_hosts) {
  std::vector<FeedJob> jobs;
  std::vector<ConfigError::Issue> issues;
  std::set<std::uint64_t> seen_ids;
  Time last_arrival = 0;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    const std::string where = "line " + std::to_string(lineno);
    FeedJob job;
    try {
      job = decode_job(parse_json(line), num_hosts);
    } catch (const std::logic_error& e) {
      issues.push_back({where, e.what()});
      continue;
    }
    if (!seen_ids.insert(job.id).second) {
      issues.push_back({where,
                        "duplicate job id " + std::to_string(job.id)});
      continue;
    }
    if (job.spec.arrival_time < last_arrival) {
      issues.push_back(
          {where, "arrival " + std::to_string(job.spec.arrival_time) +
                      " goes backwards (previous " +
                      std::to_string(last_arrival) +
                      "); the feed must be sorted by arrival"});
      continue;
    }
    last_arrival = job.spec.arrival_time;
    jobs.push_back(std::move(job));
  }
  if (!issues.empty()) throw ConfigError(context, std::move(issues));
  return jobs;
}

std::vector<FeedJob> load_feed(const std::string& path, int num_hosts) {
  std::ifstream in(path);
  if (!in)
    throw ConfigError("feed " + path, {{path, "cannot open for reading"}});
  return parse_feed(in, "feed " + path, num_hosts);
}

void write_feed(std::ostream& out, const std::vector<FeedJob>& jobs) {
  std::string line;
  for (const FeedJob& job : jobs) {
    line.clear();
    line += "{\"id\":";
    line += std::to_string(job.id);
    line += ",\"arrival\":";
    append_number(line, job.spec.arrival_time);
    if (job.spec.deadline > 0) {
      line += ",\"deadline\":";
      append_number(line, job.spec.deadline);
    }
    line += ",\"coflows\":[";
    for (std::size_t c = 0; c < job.spec.coflows.size(); ++c) {
      if (c != 0) line += ',';
      line += "{\"flows\":[";
      const CoflowSpec& coflow = job.spec.coflows[c];
      for (std::size_t f = 0; f < coflow.flows.size(); ++f) {
        if (f != 0) line += ',';
        const FlowSpec& flow = coflow.flows[f];
        line += "{\"src\":";
        line += std::to_string(flow.src_host);
        line += ",\"dst\":";
        line += std::to_string(flow.dst_host);
        line += ",\"bytes\":";
        append_number(line, flow.size);
        line += '}';
      }
      line += "]}";
    }
    line += "],\"deps\":[";
    for (std::size_t c = 0; c < job.spec.deps.size(); ++c) {
      if (c != 0) line += ',';
      line += '[';
      for (std::size_t d = 0; d < job.spec.deps[c].size(); ++d) {
        if (d != 0) line += ',';
        line += std::to_string(job.spec.deps[c][d]);
      }
      line += ']';
    }
    line += "]}\n";
    out << line;
  }
}

std::uint64_t feed_fingerprint(const std::vector<FeedJob>& jobs) {
  Fnv1a h;
  h.u64(jobs.size());
  for (const FeedJob& job : jobs) {
    h.u64(job.id);
    h.f64(job.spec.arrival_time);
    h.f64(job.spec.deadline);
    h.u64(job.spec.coflows.size());
    for (const CoflowSpec& coflow : job.spec.coflows) {
      h.u64(coflow.flows.size());
      for (const FlowSpec& flow : coflow.flows) {
        h.u64(static_cast<std::uint64_t>(flow.src_host));
        h.u64(static_cast<std::uint64_t>(flow.dst_host));
        h.f64(flow.size);
      }
    }
    for (const std::vector<int>& deps : job.spec.deps) {
      h.u64(deps.size());
      for (int d : deps) h.u64(static_cast<std::uint64_t>(d));
    }
  }
  return h.value();
}

}  // namespace gurita
