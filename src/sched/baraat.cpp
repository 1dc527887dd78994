#include "sched/baraat.h"

#include <algorithm>
#include <vector>

namespace gurita {

void BaraatScheduler::on_job_arrival(const SimJob& job, Time now) {
  (void)now;
  // A job a state loss already re-seeded at this instant keeps its serial.
  const auto [it, fresh] = serial_.emplace(job.id, next_serial_++);
  if (fresh) fifo_.emplace_back(it->second, job.id);
  heavy_.emplace(job.id, false);
}

void BaraatScheduler::on_job_finish(const SimJob& job, Time now) {
  (void)now;
  drop_from_fifo(job.id);
}

void BaraatScheduler::on_fault(const FaultEvent& event, Time now) {
  if (event.kind != FaultKind::kSchedulerStateLoss) return;
  serial_.clear();
  heavy_.clear();
  fifo_.clear();
  next_serial_ = 0;
  state().for_each_live(
      now,
      [&](const SimJob& job) {
        serial_.emplace(job.id, next_serial_);
        fifo_.emplace_back(next_serial_++, job.id);
        heavy_.emplace(job.id, false);
      },
      [](const SimCoflow&) {});
}

void BaraatScheduler::on_job_fail(const SimJob& job, Time now) {
  (void)now;
  drop_from_fifo(job.id);
  serial_.erase(job.id);
  heavy_.erase(job.id);
}

void BaraatScheduler::on_compact(const CompactionRemap& remap) {
  remap_table(serial_, remap.job_map);
  remap_table(heavy_, remap.job_map);
  std::erase_if(fifo_, [&](const std::pair<std::uint64_t, JobId>& e) {
    return remap.job_evicted(e.second);
  });
  for (auto& [serial, id] : fifo_) id = JobId{remap.job_map[id.value()]};
}

void BaraatScheduler::drop_from_fifo(JobId id) {
  const auto it = serial_.find(id);
  if (it == serial_.end()) return;
  const std::pair<std::uint64_t, JobId> entry{it->second, id};
  const auto pos = std::lower_bound(fifo_.begin(), fifo_.end(), entry);
  if (pos != fifo_.end() && *pos == entry) fifo_.erase(pos);
}

void BaraatScheduler::assign(Time now, const std::vector<SimFlow*>& active) {
  // Form service groups over the live jobs with an open flow, in FIFO
  // (serial) order: each tier holds up to `base_multiplexing` light jobs;
  // heavy jobs ride along without occupying a slot (they no longer block
  // the queue behind them).
  GURITA_CHECK_MSG(config_.base_multiplexing >= 1,
                   "base multiplexing must be >= 1");
  Tier tier = 0;
  int light_in_group = 0;
  std::size_t open_flows = 0;
  for (const auto& [serial, id] : fifo_) {
    (void)serial;
    // A coflow's open connections are its flows in the active set.
    std::size_t open = 0;
    for (CoflowId cid : state().job(id).coflows)
      open += static_cast<std::size_t>(state().coflow_open_connections(cid));
    if (open == 0) continue;
    open_flows += open;
    const Bytes sent = state().job_bytes_sent(id);
    const bool heavy = sent > config_.heavy_threshold;
    if (heavy) {
      bool& marked = heavy_.at(id);
      if (!marked) {
        marked = true;
        obs::TraceRecorder* tr = trace_recorder();
        if (tr && tr->wants(obs::TraceEventKind::kHeavyMark)) {
          obs::TraceRecord r;
          r.kind = obs::TraceEventKind::kHeavyMark;
          r.time = now;
          r.job = id.value();
          r.v0 = sent;
          tr->emit(r);
        }
      }
    }
    // The job's running coflows share its group's tier.
    for (CoflowId cid : state().job(id).coflows) {
      const SimCoflow& c = state().coflow(cid);
      if (c.released() && !c.finished()) set_priority(cid, tier, 1.0);
    }
    if (!heavy && ++light_in_group >= config_.base_multiplexing) {
      ++tier;
      light_in_group = 0;
    }
  }
  // Every active flow belongs to a job in the view; a shortfall means a
  // live job with open flows lost (or never got) its serial.
  GURITA_CHECK_MSG(open_flows == active.size(),
                   "active flow of a job with no serial");
}

void BaraatScheduler::save_state(snapshot::Writer& w) const {
  snapshot::write_table(w, serial_,
                        [&](std::uint64_t serial) { w.u64(serial); });
  w.u64(next_serial_);
  snapshot::write_table(w, heavy_, [&](bool h) { w.boolean(h); });
}

void BaraatScheduler::load_state(snapshot::Reader& r) {
  const std::uint64_t n_jobs = state().job_count();
  snapshot::read_table(r, "baraat serial", n_jobs, serial_,
                       [&](JobId) { return r.u64(); });
  next_serial_ = r.u64();
  snapshot::read_table(r, "baraat heavy mark", n_jobs, heavy_,
                       [&](JobId) { return r.boolean(); });
  fifo_.clear();
  for (const auto& [id, serial] : serial_)
    if (!state().job(id).finished()) fifo_.emplace_back(serial, id);
  std::sort(fifo_.begin(), fifo_.end());
}

}  // namespace gurita
