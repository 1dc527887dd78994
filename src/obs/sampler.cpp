#include "obs/sampler.h"

namespace gurita::obs {

void IntervalSampler::emit(TraceRecorder& sink, const SimSample& sim,
                           const MemSample& mem) {
  const Time t = next_due();

  TraceRecord s;
  s.kind = TraceEventKind::kSample;
  s.time = t;
  s.i0 = static_cast<std::int32_t>(sim.active_flows);
  s.i1 = static_cast<std::int32_t>(sim.active_coflows);
  s.i2 = static_cast<std::int32_t>(sim.active_jobs);
  s.v0 = static_cast<double>(sim.events);
  s.v1 = static_cast<double>(sim.events - last_events_) / config_.every;
  s.v2 = static_cast<double>(sim.calendar_entries);
  s.v3 = static_cast<double>(sim.flow_touches);
  s.v4 = static_cast<double>(sim.rate_recomputations);
  s.v5 = static_cast<double>(sim.trace_records);
  sink.emit(s);

  TraceRecord m;
  m.kind = TraceEventKind::kMemSample;
  m.time = t;
  m.v0 = static_cast<double>(mem.state_bytes);
  m.v1 = static_cast<double>(mem.calendar_bytes);
  m.v2 = static_cast<double>(mem.retry_bytes);
  m.v3 = static_cast<double>(mem.trace_bytes);
  m.v4 = static_cast<double>(mem.active_set_bytes);
  m.v5 = static_cast<double>(mem.total());
  sink.emit(m);

  last_events_ = sim.events;
  ++k_;
}

}  // namespace gurita::obs
