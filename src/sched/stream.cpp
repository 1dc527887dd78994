#include "sched/stream.h"

#include <vector>

namespace gurita {

void StreamScheduler::on_job_arrival(const SimJob& job, Time now) {
  (void)now;
  queue_of_.emplace(job.id, 0);  // jobs start at the highest priority
}

void StreamScheduler::on_fault(const FaultEvent& event, Time now) {
  if (event.kind != FaultKind::kSchedulerStateLoss) return;
  // A restarted receiver has no TBS history: every live job re-enters the
  // highest queue and is demoted again at the next δ refresh.
  queue_of_.clear();
  state().for_each_live(
      now, [&](const SimJob& job) { queue_of_.emplace(job.id, 0); },
      [](const SimCoflow&) {});
}

void StreamScheduler::on_compact(const CompactionRemap& remap) {
  remap_table(queue_of_, remap.job_map);
}

bool StreamScheduler::on_tick(Time now) {
  (void)now;
  bool changed = false;
  for (auto& [id, q] : queue_of_) {
    // Demotion only: priority never climbs back (bytes sent is monotone).
    const int level = thresholds_.level(state().job_bytes_sent(id));
    if (level > q) {
      q = level;
      changed = true;
    }
  }
  return changed;
}

void StreamScheduler::assign(Time now, const std::vector<SimFlow*>& active) {
  (void)now;
  (void)active;
  // Every live job has a row; its running coflows inherit the job's queue.
  for (const auto& [id, q] : queue_of_) {
    for (CoflowId cid : state().job(id).coflows) {
      const SimCoflow& c = state().coflow(cid);
      if (c.released() && !c.finished()) set_priority(cid, q, 1.0);
    }
  }
}

void StreamScheduler::save_state(snapshot::Writer& w) const {
  snapshot::write_table(w, queue_of_, [&](int q) { w.i32(q); });
}

void StreamScheduler::load_state(snapshot::Reader& r) {
  snapshot::read_table(r, "stream job queue", state().job_count(), queue_of_,
                       [&](JobId) { return r.i32(); });
}

}  // namespace gurita
