#include "sched/aalo.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace gurita {

void AaloScheduler::on_coflow_release(const SimCoflow& coflow, Time now) {
  queue_of_.emplace(coflow.id, 0);
  obs::TraceRecorder* tr = trace_recorder();
  if (tr && tr->wants(obs::TraceEventKind::kQueueChange))
    tr->emit(obs::queue_change_record(now, coflow.job, coflow.id, -1, 0,
                                      obs::QueueChangeCause::kRelease));
}

void AaloScheduler::on_fault(const FaultEvent& event, Time now) {
  if (event.kind != FaultKind::kSchedulerStateLoss) return;
  queue_of_.clear();
  obs::TraceRecorder* tr = trace_recorder();
  const bool trace_queues =
      tr != nullptr && tr->wants(obs::TraceEventKind::kQueueChange);
  state().for_each_live(
      now, [](const SimJob&) {},
      [&](const SimCoflow& coflow) {
        queue_of_.emplace(coflow.id, 0);
        if (trace_queues)
          tr->emit(obs::queue_change_record(
              now, coflow.job, coflow.id, -1, 0,
              obs::QueueChangeCause::kFaultReset));
      });
}

void AaloScheduler::on_job_fail(const SimJob& job, Time now) {
  (void)now;
  for (CoflowId cid : job.coflows) queue_of_.erase(cid);
}

void AaloScheduler::on_compact(const CompactionRemap& remap) {
  remap_table(queue_of_, remap.coflow_map);
}

void AaloScheduler::assign(Time now, const std::vector<SimFlow*>& active) {
  obs::TraceRecorder* tr = trace_recorder();
  const bool trace_queues =
      tr != nullptr && tr->wants(obs::TraceEventKind::kQueueChange);
  // Each coflow is decided once, at its first flow in `active`, so
  // demotion records keep first-appearance order.
  ++epoch_;
  seen_.resize(std::max(seen_.size(), state().coflow_count()), 0);
  for (const SimFlow* f : active) {
    const SimJob& job = state().job(f->job);
    const CoflowId cid = job.coflows[f->coflow_index];
    if (std::exchange(seen_[cid.value()], epoch_) == epoch_) continue;
    auto qit = queue_of_.find(cid);
    GURITA_CHECK_MSG(qit != queue_of_.end(), "flow of an unknown coflow");
    // Global instantaneous signal: bytes this coflow has sent so far.
    const Bytes sent = state().coflow_bytes_sent(cid);
    const Tier level = thresholds_.level(sent);
    if (level > qit->second) {
      // D-CLAS demotion: the decision signal is bytes sent, carried in
      // v5 (no Ψ̈ factor breakdown for non-LBEF schedulers).
      if (trace_queues)
        tr->emit(obs::queue_change_record(
            now, job.id, cid, qit->second, static_cast<int>(level),
            obs::QueueChangeCause::kBytesSent, {.psi = sent}));
      qit->second = level;
    }
    set_priority(cid, qit->second, 1.0);
  }
}

void AaloScheduler::save_state(snapshot::Writer& w) const {
  snapshot::write_table(w, queue_of_, [&](int q) { w.i32(q); });
}

void AaloScheduler::load_state(snapshot::Reader& r) {
  const std::uint64_t n_coflows = state().coflow_count();
  snapshot::read_table(r, "aalo coflow queue", n_coflows, queue_of_,
                       [&](CoflowId) { return r.i32(); });
}

}  // namespace gurita
