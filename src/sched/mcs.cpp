#include "sched/mcs.h"

#include <vector>

namespace gurita {

void McsScheduler::on_coflow_release(const SimCoflow& coflow, Time now) {
  (void)now;
  queue_of_.emplace(coflow.id, 0);
}

void McsScheduler::on_coflow_finish(const SimCoflow& coflow, Time now) {
  (void)now;
  queue_of_.erase(coflow.id);
}

void McsScheduler::on_fault(const FaultEvent& event, Time now) {
  if (event.kind != FaultKind::kSchedulerStateLoss) return;
  // A restarted MCS remembers no demotions: every live coflow re-enters
  // the highest queue and earns them again at the next tick.
  queue_of_.clear();
  state().for_each_live(
      now, [](const SimJob&) {},
      [&](const SimCoflow& coflow) { queue_of_.emplace(coflow.id, 0); });
}

void McsScheduler::on_job_fail(const SimJob& job, Time now) {
  (void)now;
  for (CoflowId cid : job.coflows) queue_of_.erase(cid);
}

void McsScheduler::on_compact(const CompactionRemap& remap) {
  remap_table(queue_of_, remap.coflow_map);
}

bool McsScheduler::on_tick(Time now) {
  (void)now;
  bool changed = false;
  for (auto& [cid, queue] : queue_of_) {
    const SimCoflow& coflow = state().coflow(cid);
    if (coflow.finished()) continue;
    const double signal =
        state().coflow_ell_max(cid) *
        static_cast<double>(state().coflow_open_connections(cid));
    const int level = thresholds_.level(signal);
    if (level > queue) {
      queue = level;
      changed = true;
    }
  }
  return changed;
}

void McsScheduler::assign(Time now, const std::vector<SimFlow*>& active) {
  (void)now;
  (void)active;
  // Every released, unfinished coflow has a row, so every active flow's
  // coflow is written.
  for (const auto& [cid, queue] : queue_of_) set_priority(cid, queue, 1.0);
}

void McsScheduler::save_state(snapshot::Writer& w) const {
  snapshot::write_table(w, queue_of_, [&](int q) { w.i32(q); });
}

void McsScheduler::load_state(snapshot::Reader& r) {
  snapshot::read_table(r, "mcs coflow queue", state().coflow_count(),
                       queue_of_, [&](CoflowId) { return r.i32(); });
}

}  // namespace gurita
