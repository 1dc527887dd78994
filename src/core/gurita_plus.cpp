#include "core/gurita_plus.h"

#include <algorithm>
#include <map>
#include <string>

#include "coflow/critical_path.h"
#include "core/blocking_effect.h"
#include "core/starvation.h"

namespace gurita {

GuritaPlusScheduler::GuritaPlusScheduler(const Config& config)
    : config_(config),
      thresholds_(config.queues, config.first_threshold, config.multiplier) {}

bool GuritaPlusScheduler::on_critical_path(JobId job, int index) {
  auto it = on_critical_.find(job);
  if (it == on_critical_.end()) {
    // Critical-path costs at the paper's 10G line rate.
    const JobSpec& spec = state().job(job).spec;
    it = on_critical_
             .emplace(job, compute_critical_path(
                               spec, estimated_cct_costs(spec, gbps(10.0)))
                               .on_critical)
             .first;
  }
  return it->second[static_cast<std::size_t>(index)];
}

void GuritaPlusScheduler::on_coflow_finish(const SimCoflow& coflow, Time now) {
  (void)now;
  last_queue_.erase(coflow.id);
}

void GuritaPlusScheduler::on_fault(const FaultEvent& event, Time now) {
  (void)now;
  if (event.kind != FaultKind::kSchedulerStateLoss) return;
  // Queues are re-derived from exact state next assign(); only the tracing
  // baseline resets (live coflows re-announce their queue as a fresh
  // sighting). on_critical_ is spec-derived and deliberately kept.
  last_queue_.clear();
}

void GuritaPlusScheduler::on_job_fail(const SimJob& job, Time now) {
  (void)now;
  for (CoflowId cid : job.coflows) last_queue_.erase(cid);
}

void GuritaPlusScheduler::on_compact(const CompactionRemap& remap) {
  on_critical_.clear();
  remap_table(last_queue_, remap.coflow_map);
}

void GuritaPlusScheduler::assign(Time now, const std::vector<SimFlow*>& active) {
  // Exact per-stage blocking effect from in-flight (remaining) bytes.
  // Key: (job, stage) -> Ψ_J(k).
  struct CoflowAgg {
    Bytes ell_max = 0;
    Bytes total = 0;
    double width = 0;
    int stage = 1;
    JobId job;
    int index = 0;
    BlockingInputs in;  ///< filled by the Ψ pass; read back when tracing
  };
  std::map<std::uint64_t, CoflowAgg> agg;  // by coflow id value
  for (const SimFlow* f : active) {
    const SimJob& job = state().job(f->job);
    const CoflowId cid = job.coflows[f->coflow_index];
    CoflowAgg& a = agg[cid.value()];
    const Bytes remaining = f->remaining_at(now);
    a.ell_max = std::max(a.ell_max, remaining);
    a.total += remaining;
    a.width += 1.0;
    a.stage = state().coflow(cid).stage;
    a.job = f->job;
    a.index = f->coflow_index;
  }

  std::map<std::pair<std::uint64_t, int>, double> psi_stage;
  for (auto& [cid, a] : agg) {
    (void)cid;
    const SimJob& job = state().job(a.job);
    BlockingInputs in;
    in.omega = omega_clairvoyant(job.completed_stages, job.num_stages);
    in.epsilon = epsilon_skew(a.width > 0 ? a.total / a.width : 0.0, a.ell_max,
                              config_.gamma);
    in.ell_max = a.ell_max;
    in.width = a.width;
    in.beta = config_.beta;
    in.on_critical_path =
        config_.use_critical_path && on_critical_path(a.job, a.index);
    psi_stage[{a.job.value(), a.stage}] += blocking_effect(in);
    a.in = in;
  }

  // Queue per coflow = thresholded per-stage Ψ (freely adjustable). agg is
  // an ordered map, so trace records come out in ascending coflow id.
  obs::TraceRecorder* tr = trace_recorder();
  const bool trace_queues =
      tr != nullptr && tr->wants(obs::TraceEventKind::kQueueChange);
  std::vector<QueuedCoflow> table;
  for (const auto& [cid, a] : agg) {
    const double psi = psi_stage.at({a.job.value(), a.stage});
    const int q = thresholds_.level(psi);
    table.push_back(QueuedCoflow{CoflowId{cid}, q, static_cast<int>(a.width)});
    if (trace_queues) {
      auto [it, first_sight] = last_queue_.emplace(CoflowId{cid}, -1);
      if (it->second != q) {
        tr->emit(queue_change_record(now, a.job, CoflowId{cid}, it->second, q,
                                     first_sight
                                         ? obs::QueueChangeCause::kRelease
                                         : obs::QueueChangeCause::kRecompute,
                                     a.in, psi));
        it->second = q;
      }
    }
  }
  enforce_queues(table, config_.queues, config_.starvation_mitigation);
  for (const QueuedCoflow& c : table) set_priority(c.coflow, c.tier, c.weight);
}

void GuritaPlusScheduler::save_state(snapshot::Writer& w) const {
  snapshot::write_table(w, last_queue_, [&](int q) { w.i32(q); });
}

void GuritaPlusScheduler::load_state(snapshot::Reader& r) {
  snapshot::read_table(r, "gurita_plus coflow queue", state().coflow_count(),
                       last_queue_, [&](CoflowId) { return r.i32(); });
}

}  // namespace gurita
