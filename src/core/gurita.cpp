#include "core/gurita.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "core/blocking_effect.h"
#include "core/starvation.h"

namespace gurita {

GuritaScheduler::GuritaScheduler(const Config& config)
    : config_(config),
      thresholds_(config.queues, config.first_threshold, config.multiplier),
      adaptive_(config.queues) {
  GURITA_CHECK_MSG(config.delta > 0, "HR update interval must be positive");
}

int GuritaScheduler::psi_level(double psi) const {
  return config_.adaptive_thresholds ? adaptive_.level(psi)
                                     : thresholds_.level(psi);
}

void GuritaScheduler::observe_psi(double psi) {
  if (config_.adaptive_thresholds) adaptive_.observe(psi);
}

void GuritaScheduler::on_job_arrival(const SimJob& job, Time now) {
  (void)now;
  head_receivers_.emplace(job.id, HeadReceiver(job.id));
}

void GuritaScheduler::on_coflow_release(const SimCoflow& coflow, Time now) {
  // "Newly-arriving flows of a coflow are automatically assigned the
  // highest priority ... until a threshold is exceeded or an update is
  // received from HR." Both demotion causes fire at the next tick.
  coflow_queue_.emplace(coflow.id, 0);
  obs::TraceRecorder* tr = trace_recorder();
  if (tr && tr->wants(obs::TraceEventKind::kQueueChange))
    tr->emit(obs::queue_change_record(now, coflow.job, coflow.id, -1, 0,
                                      obs::QueueChangeCause::kRelease));
}

void GuritaScheduler::on_coflow_finish(const SimCoflow& coflow, Time now) {
  (void)now;
  // Feed AVA with the coflow's final observed ℓ̈_max: the largest per-flow
  // byte count actually received, not the clairvoyant flow size — the two
  // only coincide when every flow ran to natural completion, and the online
  // estimator must stay honest when they don't.
  Bytes ell_max = 0;
  for (FlowId fid : coflow.flows)
    ell_max = std::max(ell_max, state().flow(fid).bytes_sent());
  ava_.observe(ell_max);
  coflow_queue_.erase(coflow.id);
}

void GuritaScheduler::on_job_finish(const SimJob& job, Time now) {
  (void)now;
  head_receivers_.erase(job.id);
}

void GuritaScheduler::on_job_fail(const SimJob& job, Time now) {
  (void)now;
  head_receivers_.erase(job.id);
  for (CoflowId cid : job.coflows) coflow_queue_.erase(cid);
}

void GuritaScheduler::on_compact(const CompactionRemap& remap) {
  // Monotone renumbering keeps both maps sorted, so the rebuild preserves
  // iteration (and hence Ψ̈ fold and trace emission) order over survivors.
  std::map<JobId, HeadReceiver> survivors;
  for (auto& [jid, hr] : head_receivers_) {
    const std::uint64_t to = remap.job_map[jid.value()];
    if (to == CompactionRemap::kEvicted) continue;
    // Whole-job eviction: a surviving job's coflows all survive, so every
    // observation key has a mapping.
    std::map<CoflowId, CoflowObservation> observations;
    for (const auto& [cid, o] : hr.observations())
      observations.emplace(CoflowId{remap.coflow_map[cid.value()]}, o);
    hr.rekey(JobId{to}, std::move(observations));
    survivors.emplace(JobId{to}, std::move(hr));
  }
  head_receivers_ = std::move(survivors);
  remap_table(coflow_queue_, remap.coflow_map);
}

void GuritaScheduler::on_fault(const FaultEvent& event, Time now) {
  if (event.kind != FaultKind::kSchedulerStateLoss) return;
  // A restarted HR has no memory: the byte observations, the AVA history
  // behind the critical-path discount and any learned thresholds are gone.
  // Every live coflow re-enters the highest queue and earns its demotions
  // again from fresh (stale-Ψ̈) observations, just like at release.
  head_receivers_.clear();
  coflow_queue_.clear();
  ava_ = AvaEstimator{};
  adaptive_ = AdaptiveThresholds(config_.queues);
  obs::TraceRecorder* tr = trace_recorder();
  const bool trace_queues =
      tr != nullptr && tr->wants(obs::TraceEventKind::kQueueChange);
  state().for_each_live(
      now,
      [&](const SimJob& job) {
        head_receivers_.emplace(job.id, HeadReceiver(job.id));
      },
      [&](const SimCoflow& coflow) {
        coflow_queue_.emplace(coflow.id, 0);
        if (trace_queues)
          tr->emit(obs::queue_change_record(
              now, coflow.job, coflow.id, -1, 0,
              obs::QueueChangeCause::kFaultReset));
      });
}

bool GuritaScheduler::decide_priorities(HeadReceiver& hr, Time now) {
  // Ψ̈ per coflow, then per-stage sums Ψ̈_J(k).
  const double omega = omega_online(hr.completed_stages());
  obs::TraceRecorder* tr = trace_recorder();
  const bool trace_queues =
      tr != nullptr && tr->wants(obs::TraceEventKind::kQueueChange);
  std::map<int, double> psi_stage;
  std::unordered_map<CoflowId, int> stage_of;
  std::unordered_map<CoflowId, BlockingInputs> inputs_of;
  for (const auto& [cid, obs] : hr.observations()) {
    BlockingInputs in;
    in.omega = omega;
    in.epsilon = epsilon_skew(obs.ell_avg_observed, obs.ell_max_observed,
                              config_.gamma, config_.paper_literal_epsilon);
    in.ell_max = obs.ell_max_observed;
    in.width = obs.open_connections;
    in.beta = config_.beta;
    in.on_critical_path = config_.use_critical_path &&
                          ava_.likely_critical(obs.ell_max_observed);
    if (in.on_critical_path) ++stats_.critical_path_hits;
    psi_stage[obs.stage] += blocking_effect(in);
    stage_of[cid] = obs.stage;
    if (trace_queues) inputs_of.emplace(cid, in);
  }
  // LBEF demotion: coflows inherit their stage's queue; existing flows may
  // only be demoted (promotions would reorder in-flight TCP segments).
  for (const auto& [stage, psi] : psi_stage) {
    (void)stage;
    observe_psi(psi);
  }
  bool changed = false;
  for (const auto& [cid, stage] : stage_of) {
    const int queue = psi_level(psi_stage.at(stage));
    auto it = coflow_queue_.find(cid);
    GURITA_CHECK_MSG(it != coflow_queue_.end(), "observed unknown coflow");
    if (queue > it->second) {
      if (trace_queues)
        tr->emit(queue_change_record(
            now, hr.job(), cid, it->second, queue,
            obs::QueueChangeCause::kHrDecision, inputs_of.at(cid),
            psi_stage.at(stage)));
      it->second = queue;
      ++stats_.demotions;
      changed = true;
    }
  }
  return changed;
}

bool GuritaScheduler::on_tick(Time now) {
  bool changed = false;
  for (auto& [jid, hr] : head_receivers_) {
    if (state().job(jid).finished()) continue;
    hr.update(state());
    ++stats_.hr_updates;
    if (decide_priorities(hr, now)) changed = true;
  }
  return changed;
}

int GuritaScheduler::coflow_queue(CoflowId id) const {
  const auto it = coflow_queue_.find(id);
  return it == coflow_queue_.end() ? 0 : it->second;
}

void GuritaScheduler::self_demote(CoflowId cid, int& queue, Time now) {
  ++stats_.self_demote_checks;
  const SimCoflow& coflow = state().coflow(cid);
  // Receiver-local estimate of this coflow's own blocking effect; the HR's
  // last-known completed-stage count supplies ω̈. The byte signals come
  // from the engine's incremental aggregates (O(1) for the sums, no
  // per-flow re-summation).
  const auto hr = head_receivers_.find(coflow.job);
  const int completed =
      hr != head_receivers_.end() ? hr->second.completed_stages() : 0;
  const Bytes ell_max = state().coflow_ell_max(cid);
  const Bytes total = state().coflow_bytes_sent(cid);
  const int open = state().coflow_open_connections(cid);
  BlockingInputs in;
  in.omega = omega_online(completed);
  in.epsilon = epsilon_skew(
      coflow.flows.empty() ? 0.0 : total / static_cast<double>(coflow.flows.size()),
      ell_max, config_.gamma, config_.paper_literal_epsilon);
  in.ell_max = ell_max;
  in.width = open;
  in.beta = config_.beta;
  in.on_critical_path =
      config_.use_critical_path && ava_.likely_critical(ell_max);
  const double psi = blocking_effect(in);
  const int level = psi_level(psi);
  if (level > queue) {
    obs::TraceRecorder* tr = trace_recorder();
    if (tr && tr->wants(obs::TraceEventKind::kQueueChange))
      tr->emit(queue_change_record(now, coflow.job, cid, queue, level,
                                   obs::QueueChangeCause::kSelfDemote, in,
                                   psi));
    queue = level;
    ++stats_.self_demotions;
  }
}

void GuritaScheduler::save_state(snapshot::Writer& w) const {
  snapshot::write_table(w, head_receivers_,
                        [&](const HeadReceiver& hr) { hr.save_state(w); });
  snapshot::write_table(w, coflow_queue_, [&](int queue) { w.i32(queue); });
  ava_.save_state(w);
  adaptive_.save_state(w);
  w.u64(stats_.hr_updates);
  w.u64(stats_.demotions);
  w.u64(stats_.self_demote_checks);
  w.u64(stats_.self_demotions);
  w.u64(stats_.critical_path_hits);
}

void GuritaScheduler::load_state(snapshot::Reader& r) {
  const std::uint64_t n_coflows = state().coflow_count();
  snapshot::read_table(r, "gurita head receiver", state().job_count(),
                       head_receivers_, [&](JobId jid) {
                         HeadReceiver hr(jid);
                         hr.load_state(r, n_coflows);
                         return hr;
                       });
  snapshot::read_table(r, "gurita coflow queue", n_coflows, coflow_queue_,
                       [&](CoflowId) { return r.i32(); });
  ava_.load_state(r);
  adaptive_.load_state(r);
  stats_.hr_updates = r.u64();
  stats_.demotions = r.u64();
  stats_.self_demote_checks = r.u64();
  stats_.self_demotions = r.u64();
  stats_.critical_path_hits = r.u64();
}

void GuritaScheduler::assign(Time now, const std::vector<SimFlow*>& active) {
  (void)active;
  // Continuous receiver-local threshold check: exactly once per released,
  // unfinished coflow. coflow_queue_ is that set (entries are added at
  // release and erased at finish), so iterating it directly never depends
  // on the active list keeping a coflow's flows contiguous — the old
  // previous-flow dedup silently skipped coflows under interleaved orders.
  // Every active flow's coflow has a row, so writing the rows with open
  // connections covers the active set.
  std::vector<QueuedCoflow> table;
  for (auto& [cid, queue] : coflow_queue_) {
    self_demote(cid, queue, now);
    const int open = state().coflow_open_connections(cid);
    if (open > 0) table.push_back(QueuedCoflow{cid, queue, open});
  }
  const std::vector<double> weights =
      enforce_queues(table, config_.queues, config_.starvation_mitigation);
  obs::TraceRecorder* tr = trace_recorder();
  if (config_.starvation_mitigation && tr &&
      tr->wants(obs::TraceEventKind::kStarvationWeights)) {
    obs::TraceRecord r;
    r.kind = obs::TraceEventKind::kStarvationWeights;
    r.time = now;
    r.i0 = config_.queues;
    if (!weights.empty()) r.v0 = weights[0];
    if (weights.size() > 1) r.v1 = weights[1];
    if (weights.size() > 2) r.v2 = weights[2];
    if (weights.size() > 3) r.v3 = weights[3];
    tr->emit(r);
  }
  for (const QueuedCoflow& c : table) set_priority(c.coflow, c.tier, c.weight);
}

}  // namespace gurita
