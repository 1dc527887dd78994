// Reference-oracle engine for the differential test harness.
//
// A deliberately simple O(active-flows)-per-event re-implementation of the
// simulator's allocation/drain loop: no completion calendar — every event
// scans the whole active set for the next completion and for due flows,
// exactly like the seed engine before the event calendar existed.
// Everything else (lazy settle-point
// byte accounting, aggregate maintenance, scheduler hook order, active-list
// swap-with-last order, arrival coalescing) is kept ARITHMETICALLY
// IDENTICAL to flowsim/simulator.cpp, expression by expression, so real
// schedulers observe bit-identical state and drive both engines down the
// same trajectory.
//
// That makes the pair a differential oracle: any divergence in event times,
// JCT/CCT or counters between Simulator and OracleSimulator on the same
// workload indicts the calendar machinery (in-place re-keying, erasure,
// pop ordering) — precisely the part this oracle leaves out. The
// differential fuzz gate (differential_engine_test.cpp) replays randomized
// traces through both and asserts equality; keep this file boring and in
// lock-step with simulator.cpp.
//
// Test-only: lives in tests/, never linked into the library
// (SimState befriends OracleSimulator for state maintenance).
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "allocator_oracle.h"
#include "flowsim/allocator.h"
#include "flowsim/scheduler.h"
#include "flowsim/simulator.h"
#include "flowsim/state.h"
#include "topology/fabric.h"

namespace gurita {

class OracleSimulator {
 public:
  OracleSimulator(const Fabric& fabric, Scheduler& scheduler,
                  Simulator::Config config)
      : fabric_(&fabric), scheduler_(&scheduler), config_(std::move(config)) {
    state_.writer_ = &writer_;
    capacities_.resize(fabric.topology().link_count());
    for (std::size_t i = 0; i < capacities_.size(); ++i)
      capacities_[i] = fabric.topology().capacity(LinkId{i});
  }
  OracleSimulator(const Fabric& fabric, Scheduler& scheduler)
      : OracleSimulator(fabric, scheduler, Simulator::Config{}) {}

  JobId submit(const JobSpec& spec) {
    GURITA_CHECK_MSG(!ran_, "submit after run()");
    validate(spec, fabric_->num_hosts());

    const JobId jid{state_.jobs_.size()};
    SimJob job;
    job.id = jid;
    job.spec = spec;
    job.arrival_time = spec.arrival_time;
    job.stage_of = stages_of(spec);
    job.num_stages = 0;
    for (int s : job.stage_of) job.num_stages = std::max(job.num_stages, s);
    job.total_bytes = spec.total_bytes();
    coflows_remaining_.push_back(static_cast<int>(spec.coflows.size()));

    for (std::size_t i = 0; i < spec.coflows.size(); ++i) {
      const CoflowId cid{state_.coflows_.size()};
      SimCoflow c;
      c.id = cid;
      c.job = jid;
      c.index = static_cast<int>(i);
      c.stage = job.stage_of[i];
      deps_remaining_.push_back(static_cast<int>(spec.deps[i].size()));
      state_.coflows_.push_back(std::move(c));
      state_.aggregates_.emplace_back();
      job.coflows.push_back(cid);
    }
    state_.jobs_.push_back(std::move(job));
    return jid;
  }

  SimResults run() {
    GURITA_CHECK_MSG(!ran_, "run() called twice");
    ran_ = true;
    scheduler_->attach(state_);

    std::size_t total_flows = 0;
    for (const SimJob& j : state_.jobs_)
      for (const CoflowSpec& c : j.spec.coflows) total_flows += c.flows.size();
    state_.flows_.reserve(total_flows);
    pos_in_active_.reserve(total_flows);

    std::vector<JobId> arrival_order;
    arrival_order.reserve(state_.jobs_.size());
    for (const SimJob& j : state_.jobs_) arrival_order.push_back(j.id);
    std::sort(arrival_order.begin(), arrival_order.end(),
              [this](JobId a, JobId b) {
                const Time ta = state_.jobs_[a.value()].arrival_time;
                const Time tb = state_.jobs_[b.value()].arrival_time;
                if (ta != tb) return ta < tb;
                return a < b;
              });

    std::size_t next_arrival = 0;
    const Time tick = scheduler_->tick_interval();
    GURITA_CHECK_MSG(tick >= 0, "negative tick interval");
    Time next_tick = std::numeric_limits<Time>::infinity();
    bool dirty = true;
    SimResults results;

    std::vector<FlowId> done;
    std::uint64_t iterations = 0;

    while (next_arrival < arrival_order.size() || !active_.empty()) {
      if (++iterations > Simulator::kMaxIterations) {
        std::ostringstream os;
        os << "oracle live-lock guard tripped: now=" << now_
           << " active_flows=" << active_.size()
           << " pending_arrivals=" << (arrival_order.size() - next_arrival)
           << " recomputations=" << results.rate_recomputations;
        throw std::logic_error(os.str());
      }
      ++results.events;
      if (active_.empty()) {
        SimJob& job = state_.jobs_[arrival_order[next_arrival].value()];
        now_ = std::max(now_, job.arrival_time);
        state_.now_ = now_;
        ++next_arrival;
        arrive_job(job);
        while (next_arrival < arrival_order.size()) {
          SimJob& j = state_.jobs_[arrival_order[next_arrival].value()];
          if (j.arrival_time > now_ + kTimeEpsilon) break;
          ++next_arrival;
          arrive_job(j);
        }
        if (tick > 0) next_tick = now_ + tick;
        dirty = true;
        continue;
      }

      if (dirty) {
        scheduler_->assign(now_, active_);
        allocate_rates(fabric_->topology(), capacities_, active_,
                       &rate_changes_);
        ++results.rate_recomputations;
        for (const RateChange& rc : rate_changes_) {
          SimFlow& f = *rc.flow;
          const Rate target = f.rate;  // the allocator's output
          f.rate = rc.old_rate;  // restore: the flow drained at the old rate
          settle(f);
          set_rate(f, target);
        }
        dirty = false;
      }

      // ORACLE DIVERGENCE #1: next completion by full active-set scan.
      // Candidate finish per flow = the exact expression the fast engine
      // froze into its calendar entry at the flow's last settle point
      // (push_key): `last_touched + remaining / rate`, or `last_touched`
      // for an already-drained residue; rate-zero flows with real bytes
      // left have no projected finish.
      Time t_complete = std::numeric_limits<Time>::infinity();
      for (const SimFlow* f : active_) {
        Time candidate;
        if (f->remaining <= kByteEpsilon) {
          candidate = f->last_touched;
        } else if (f->rate > 0) {
          candidate = f->last_touched + f->remaining / f->rate;
        } else {
          continue;
        }
        t_complete = std::min(t_complete, candidate);
      }
      const Time t_arrival =
          next_arrival < arrival_order.size()
              ? state_.jobs_[arrival_order[next_arrival].value()].arrival_time
              : std::numeric_limits<Time>::infinity();
      const Time t_tick =
          tick > 0 ? next_tick : std::numeric_limits<Time>::infinity();

      Time t_next = std::min({t_complete, t_arrival, t_tick});
      GURITA_CHECK_MSG(std::isfinite(t_next),
                       "oracle stalled: active flows but no next event");
      GURITA_CHECK_MSG(t_next <= config_.max_time,
                       "oracle exceeded max_time");
      t_next = std::max(t_next, now_);

      now_ = t_next;
      state_.now_ = now_;

      // ORACLE DIVERGENCE #2: completions by full active-set scan with the
      // engine's exact due predicate, then sorted by flow id — the same
      // finish order the fast engine applies to its popped batch.
      const Time quantum = std::max(1.0, now_) * 1e-12;
      done.clear();
      for (const SimFlow* f : active_) {
        const Bytes rem = f->remaining_at(now_);
        if (rem <= kByteEpsilon || rem <= f->rate * quantum)
          done.push_back(f->id);
      }
      if (!done.empty()) {
        std::sort(done.begin(), done.end());
        for (FlowId id : done) finish_flow(state_.flows_[id.value()]);
        dirty = true;
      }

      while (next_arrival < arrival_order.size()) {
        SimJob& j = state_.jobs_[arrival_order[next_arrival].value()];
        if (j.arrival_time > now_ + kTimeEpsilon) break;
        ++next_arrival;
        arrive_job(j);
        dirty = true;
      }

      if (tick > 0 && now_ + kTimeEpsilon >= next_tick) {
        if (scheduler_->on_tick(now_)) dirty = true;
        next_tick += tick;
      }
    }

    results.makespan = now_;
    results.jobs.reserve(state_.jobs_.size());
    for (const SimJob& j : state_.jobs_) {
      GURITA_CHECK_MSG(j.finished(), "job left unfinished at end of run");
      results.jobs.push_back(SimResults::JobResult{
          j.id, j.arrival_time, j.finish_time, j.total_bytes, j.num_stages});
    }
    results.coflows.reserve(state_.coflows_.size());
    for (const SimCoflow& c : state_.coflows_) {
      results.coflows.push_back(SimResults::CoflowResult{
          c.id, c.job, c.stage, c.release_time, c.finish_time,
          state_.coflow_total_bytes(c.id)});
    }
    return results;
  }

  [[nodiscard]] const SimState& state() const { return state_; }

 private:
  const Fabric* fabric_;
  Scheduler* scheduler_;
  Simulator::Config config_;
  SimState state_;
  /// Priorities reach flows through the same writer as in the engine, but
  /// with no allocator to dirty: every allocation here re-solves all.
  PriorityWriter writer_{&state_, nullptr};
  bool ran_ = false;

  // Same active-list discipline as the fast engine (swap-with-last
  // removal): allocator input order is part of the bit-identity contract.
  std::vector<SimFlow*> active_;
  std::vector<std::uint32_t> pos_in_active_;
  std::vector<RateChange> rate_changes_;

  Time now_ = 0;
  std::vector<Rate> capacities_;
  /// The oracle's own DAG counters, kept apart from the engine's state so
  /// it stays an independent reference: unfinished coflows per job and
  /// unfinished dependencies per coflow (by id).
  std::vector<int> coflows_remaining_;
  std::vector<int> deps_remaining_;

  SimState::CoflowAggregate& aggregate_of(const SimFlow& flow) {
    const CoflowId cid =
        state_.jobs_[flow.job.value()].coflows[flow.coflow_index];
    return state_.aggregates_[cid.value()];
  }

  void settle(SimFlow& flow) {
    const Time elapsed = now_ - flow.last_touched;
    if (elapsed > 0 && flow.rate > 0) {
      const Bytes after = std::max(0.0, flow.remaining - flow.rate * elapsed);
      SimState::CoflowAggregate& agg = aggregate_of(flow);
      agg.base_bytes += flow.remaining - after;
      agg.rate_time_sum += flow.rate * elapsed;
      flow.remaining = after;
    }
    flow.last_touched = now_;
  }

  void set_rate(SimFlow& flow, Rate new_rate) {
    SimState::CoflowAggregate& agg = aggregate_of(flow);
    agg.rate_sum += new_rate - flow.rate;
    agg.rate_time_sum += (new_rate - flow.rate) * now_;
    flow.rate = new_rate;
  }

  void remove_from_active(SimFlow& flow) {
    const std::uint32_t pos = pos_in_active_[flow.id.value()];
    SimFlow* last = active_.back();
    active_[pos] = last;
    pos_in_active_[last->id.value()] = pos;
    active_.pop_back();
  }

  void release_coflow(SimCoflow& coflow) {
    GURITA_CHECK_MSG(!coflow.released(), "double release");
    const SimJob& job = state_.jobs_[coflow.job.value()];
    const CoflowSpec& spec = job.spec.coflows[coflow.index];

    coflow.release_time = now_;
    coflow.flows_remaining = static_cast<int>(spec.flows.size());
    SimState::CoflowAggregate& agg = state_.aggregates_[coflow.id.value()];
    for (const FlowSpec& fs : spec.flows) {
      GURITA_CHECK_MSG(state_.flows_.size() < state_.flows_.capacity(),
                       "flow store would reallocate under the active list");
      const FlowId fid{state_.flows_.size()};
      SimFlow f;
      f.id = fid;
      f.job = coflow.job;
      f.coflow_index = coflow.index;
      f.src_host = fs.src_host;
      f.dst_host = fs.dst_host;
      f.size = fs.size;
      f.remaining = fs.size;
      f.last_touched = now_;
      f.tier = coflow.tier;
      f.weight = coflow.weight;
      f.path = fabric_->route(fid, fs.src_host, fs.dst_host);
      state_.flows_.push_back(std::move(f));
      coflow.flows.push_back(fid);

      SimFlow& stored = state_.flows_.back();
      pos_in_active_.push_back(static_cast<std::uint32_t>(active_.size()));
      active_.push_back(&stored);
      ++agg.open_connections;
    }
    scheduler_->on_coflow_release(coflow, now_);
  }

  void finish_coflow(SimCoflow& coflow) {
    coflow.finish_time = now_;
    scheduler_->on_coflow_finish(coflow, now_);

    SimJob& job = state_.jobs_[coflow.job.value()];
    --coflows_remaining_[job.id.value()];

    const JobSpec& spec = job.spec;
    for (std::size_t i = 0; i < spec.coflows.size(); ++i) {
      SimCoflow& cand = state_.coflows_[job.coflows[i].value()];
      if (cand.released()) continue;
      bool depends = false;
      for (int d : spec.deps[i]) {
        if (d == coflow.index) {
          depends = true;
          break;
        }
      }
      if (!depends) continue;
      if (--deps_remaining_[cand.id.value()] == 0) release_coflow(cand);
    }

    if (coflows_remaining_[job.id.value()] == 0) {
      job.finish_time = now_;
      job.completed_stages = job.num_stages;
      scheduler_->on_job_finish(job, now_);
    } else {
      int k = job.num_stages;
      for (std::size_t i = 0; i < job.coflows.size(); ++i) {
        const SimCoflow& c = state_.coflows_[job.coflows[i].value()];
        if (!c.finished()) k = std::min(k, job.stage_of[i] - 1);
      }
      job.completed_stages = k;
    }
  }

  void finish_flow(SimFlow& flow) {
    settle(flow);
    set_rate(flow, 0.0);
    SimState::CoflowAggregate& agg = aggregate_of(flow);
    agg.base_bytes += flow.remaining;
    flow.remaining = 0;
    agg.ell_max_settled = std::max(agg.ell_max_settled, flow.size);
    --agg.open_connections;
    remove_from_active(flow);
    flow.finish_time = now_;

    SimCoflow& coflow = state_.coflows_[state_.jobs_[flow.job.value()]
                                            .coflows[flow.coflow_index]
                                            .value()];
    --coflow.flows_remaining;
    scheduler_->on_flow_finish(flow, now_);
    if (coflow.flows_remaining == 0) finish_coflow(coflow);
  }

  void arrive_job(SimJob& job) {
    scheduler_->on_job_arrival(job, now_);
    for (std::size_t i = 0; i < job.coflows.size(); ++i) {
      SimCoflow& c = state_.coflows_[job.coflows[i].value()];
      if (deps_remaining_[c.id.value()] == 0) release_coflow(c);
    }
  }
};

}  // namespace gurita
