// Test oracle: Baraat's FIFO-LM grouping computed the direct way. Every
// assign() looks up the serial of each active flow's job, sorts the list
// and drops repeats, so the jobs it groups are exactly those with a flow in
// `active`, in ascending serial order. The shipped BaraatScheduler
// (sched/baraat.h) walks an ordered view of its live jobs instead and is
// held to the same coflow priorities after every allocation
// (baraat_oracle_test.cpp). Same name, config and checkpoint layout as the
// shipped policy, so a snapshot taken under one restores into the other.
// Test-only: lives in tests/, never linked into the library.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "flowsim/scheduler.h"
#include "sched/baraat.h"

namespace gurita::test {

class BaraatActiveSortOracle final : public Scheduler {
 public:
  explicit BaraatActiveSortOracle(const BaraatScheduler::Config& config)
      : config_(config) {}

  [[nodiscard]] std::string name() const override { return "baraat"; }

  void on_job_arrival(const SimJob& job, Time now) override {
    (void)now;
    serial_.emplace(job.id, next_serial_++);
    heavy_.emplace(job.id, false);
  }

  void on_fault(const FaultEvent& event, Time now) override {
    if (event.kind != FaultKind::kSchedulerStateLoss) return;
    serial_.clear();
    heavy_.clear();
    next_serial_ = 0;
    for (std::size_t j = 0; j < state().job_count(); ++j) {
      const SimJob& job = state().job(JobId(j));
      if (job.finished() || job.arrival_time > now) continue;
      serial_.emplace(job.id, next_serial_++);
      heavy_.emplace(job.id, false);
    }
  }

  void on_job_fail(const SimJob& job, Time now) override {
    (void)now;
    serial_.erase(job.id);
    heavy_.erase(job.id);
  }

  void on_compact(const CompactionRemap& remap) override {
    remap_table(serial_, remap.job_map);
    remap_table(heavy_, remap.job_map);
  }

  void assign(Time now, const std::vector<SimFlow*>& active) override {
    // Jobs with at least one active flow, in FIFO (serial) order.
    std::vector<std::pair<std::uint64_t, JobId>> jobs;
    for (const SimFlow* f : active) {
      const auto it = serial_.find(f->job);
      GURITA_CHECK_MSG(it != serial_.end(), "flow of an unknown job");
      jobs.emplace_back(it->second, f->job);
    }
    std::sort(jobs.begin(), jobs.end());
    jobs.erase(std::unique(jobs.begin(), jobs.end()), jobs.end());

    GURITA_CHECK_MSG(config_.base_multiplexing >= 1,
                     "base multiplexing must be >= 1");
    Tier tier = 0;
    int light_in_group = 0;
    for (const auto& [serial, id] : jobs) {
      (void)serial;
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
      for (CoflowId cid : state().job(id).coflows) {
        const SimCoflow& c = state().coflow(cid);
        if (c.released() && !c.finished()) set_priority(cid, tier, 1.0);
      }
      if (!heavy && ++light_in_group >= config_.base_multiplexing) {
        ++tier;
        light_in_group = 0;
      }
    }
  }

  void save_state(snapshot::Writer& w) const override {
    snapshot::write_table(w, serial_,
                          [&](std::uint64_t serial) { w.u64(serial); });
    w.u64(next_serial_);
    snapshot::write_table(w, heavy_, [&](bool h) { w.boolean(h); });
  }

  void load_state(snapshot::Reader& r) override {
    const std::uint64_t n_jobs = state().job_count();
    snapshot::read_table(r, "baraat serial", n_jobs, serial_,
                         [&](JobId) { return r.u64(); });
    next_serial_ = r.u64();
    snapshot::read_table(r, "baraat heavy mark", n_jobs, heavy_,
                         [&](JobId) { return r.boolean(); });
  }

 private:
  BaraatScheduler::Config config_;
  std::unordered_map<JobId, std::uint64_t> serial_;
  std::uint64_t next_serial_ = 0;
  std::unordered_map<JobId, bool> heavy_;
};

}  // namespace gurita::test
