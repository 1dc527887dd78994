#include "bound/gap.h"

#include "common/check.h"
#include "common/json.h"
#include "metrics/report.h"

namespace gurita {

namespace {

std::string fmt(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

/// `s` as a JSON string literal.
std::string quoted(std::string_view s) {
  std::string out = "\"";
  append_escaped(out, s);
  return out + '"';
}

std::string cell_json(const GapCell& c) {
  return "{\"jobs\": " + std::to_string(c.jobs) + ", \"achieved\": " +
         fmt(c.achieved) + ", \"bound\": " + fmt(c.bound) + ", \"gap\": " +
         fmt(c.gap()) + "}";
}

bool cell_sound(const GapCell& c, double tolerance) {
  return c.jobs == 0 || c.bound <= c.achieved * (1 + tolerance);
}

}  // namespace

bool GapReport::sound(double tolerance) const {
  for (const SchedulerGap& s : schedulers) {
    if (!cell_sound(s.overall, tolerance)) return false;
    for (const GapCell& c : s.by_category)
      if (!cell_sound(c, tolerance)) return false;
    if (!cell_sound(s.narrow, tolerance)) return false;
    if (!cell_sound(s.wide, tolerance)) return false;
  }
  return true;
}

const SchedulerGap* GapReport::best() const {
  const SchedulerGap* best = nullptr;
  for (const SchedulerGap& s : schedulers)
    if (s.overall.jobs > 0 &&
        (best == nullptr || s.overall.achieved < best->overall.achieved))
      best = &s;
  return best;
}

std::string GapReport::to_json() const {
  std::string out = "{\n";
  out += "  \"scenario\": " + quoted(scenario) + ",\n";
  out += "  \"num_hosts\": " + std::to_string(num_hosts) + ",\n";
  out += "  \"capacity_bytes_per_s\": " + fmt(capacity) + ",\n";
  out += "  \"port_load_bound\": " + fmt(port_load_bound) + ",\n";
  out += "  \"ordering_bound\": " + fmt(ordering_bound) + ",\n";
  out += "  \"schedulers\": [";
  for (std::size_t i = 0; i < schedulers.size(); ++i) {
    const SchedulerGap& s = schedulers[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"scheduler\": " + quoted(s.scheduler) + ",\n";
    out += "     \"overall\": " + cell_json(s.overall) + ",\n";
    out += "     \"narrow\": " + cell_json(s.narrow) + ",\n";
    out += "     \"wide\": " + cell_json(s.wide) + ",\n";
    out += "     \"categories\": {";
    bool first = true;
    for (int cat = 0; cat < kNumCategories; ++cat) {
      const GapCell& c = s.by_category[static_cast<std::size_t>(cat)];
      if (c.jobs == 0) continue;
      out += first ? "" : ", ";
      out += quoted(category_name(cat)) + ": " + cell_json(c);
      first = false;
    }
    out += "}}";
  }
  out += schedulers.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

std::string GapReport::to_table() const {
  std::string out;
  for (const SchedulerGap& s : schedulers) {
    out += s.scheduler + "\n";
    out += category_panel(
        [&](int cat) {
          return cat < 0 ? s.overall.jobs
                         : s.by_category[static_cast<std::size_t>(cat)].jobs;
        },
        [&](int cat) {
          return cat < 0
                     ? s.overall.achieved
                     : s.by_category[static_cast<std::size_t>(cat)].achieved;
        },
        "achieved JCT(s)", {"bound JCT(s)", "gap"},
        [&](int cat) -> std::vector<std::string> {
          const GapCell& c =
              cat < 0 ? s.overall : s.by_category[static_cast<std::size_t>(cat)];
          return {TextTable::num(c.bound), TextTable::num(c.gap())};
        });
    out += "\n";
  }
  return out;
}

GapReport make_gap_report(
    std::string scenario, const std::vector<JobSpec>& jobs, int num_hosts,
    Rate capacity,
    const std::vector<std::pair<std::string, const SimResults*>>& achieved) {
  GapReport report;
  report.scenario = std::move(scenario);
  report.num_hosts = num_hosts;
  report.capacity = capacity;

  const BoundAnalysis analysis(jobs, num_hosts, capacity);
  report.port_load_bound = analysis.port_load_bound();
  report.ordering_bound = analysis.ordering_bound();

  for (const auto& [name, results] : achieved) {
    GURITA_CHECK_MSG(results != nullptr && results->jobs.size() == jobs.size(),
                     "gap report needs results over the same workload");
    SchedulerGap sg;
    sg.scheduler = name;

    // Per-scheduler completion mask: failed jobs are excluded from JCT
    // statistics, so both sides of every cell restrict to the same subset.
    const auto fill = [&](GapCell& cell,
                          const std::function<bool(std::size_t)>& member) {
      std::vector<bool> include(jobs.size(), false);
      double sum = 0;
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SimResults::JobResult& j = results->jobs[i];
        if (j.failed || !member(i)) continue;
        include[i] = true;
        sum += j.jct();
        ++cell.jobs;
      }
      if (cell.jobs == 0) return;
      cell.achieved = sum / static_cast<double>(cell.jobs);
      cell.bound = analysis.average_jct_bound(include);
    };

    fill(sg.overall, [](std::size_t) { return true; });
    for (int cat = 0; cat < kNumCategories; ++cat)
      fill(sg.by_category[static_cast<std::size_t>(cat)], [&](std::size_t i) {
        return category_of(analysis.jobs()[i].total_bytes) == cat;
      });
    fill(sg.narrow, [&](std::size_t i) {
      return analysis.jobs()[i].stages > kWideMaxStages;
    });
    fill(sg.wide, [&](std::size_t i) {
      return analysis.jobs()[i].stages <= kWideMaxStages;
    });
    report.schedulers.push_back(std::move(sg));
  }
  return report;
}

}  // namespace gurita
