#include "traced.h"

#include <fstream>
#include <stdexcept>

namespace perfbench {

const char* to_string(SpanName name) {
  switch (name) {
    case SpanName::kRun: return "flowsim.run";
    case SpanName::kAssign: return "sched.assign";
    case SpanName::kTick: return "sched.tick";
    case SpanName::kRoute: return "topology.route";
  }
  return "?";
}

void SpanLog::write_csv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "run,name,parent,start_ns,end_ns\n";
  for (const Span& s : spans_)
    out << s.run << ',' << to_string(s.name) << ',' << s.parent << ','
        << s.start_ns << ',' << s.end_ns << '\n';
  if (!out.flush()) throw std::runtime_error("short write to " + path);
}

bool TracedScheduler::on_tick(gurita::Time now) {
  const std::int32_t span = ctx_.log->open(SpanName::kTick, ctx_.run,
                                           ctx_.parent);
  const bool changed = inner_.on_tick(now);
  ctx_.log->close(span);
  ++ctx_.ticks;
  if (changed) ++ctx_.tick_changes;
  return changed;
}

void TracedScheduler::assign(gurita::Time now,
                             const std::vector<gurita::SimFlow*>& active) {
  const std::int32_t span = ctx_.log->open(SpanName::kAssign, ctx_.run,
                                           ctx_.parent);
  inner_.assign(now, active);
  ctx_.log->close(span);
}

std::vector<gurita::LinkId> TracedFabric::route(gurita::FlowId flow,
                                                int src_host,
                                                int dst_host) const {
  const std::int32_t span = ctx_->log->open(SpanName::kRoute, ctx_->run,
                                            ctx_->parent);
  std::vector<gurita::LinkId> path = inner_.route(flow, src_host, dst_host);
  ctx_->log->close(span);
  return path;
}

}  // namespace perfbench
