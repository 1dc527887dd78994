#include "service/daemon.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <utility>

#include "common/check.h"
#include "common/fnv.h"
#include "common/stats.h"
#include "exp/registry.h"
#include "fault/fault.h"
#include "metrics/collector.h"
#include "service/signals.h"
#include "snapshot/snapshot.h"

namespace gurita::service {

namespace {

constexpr Time kInf = std::numeric_limits<Time>::infinity();

/// Sim-seconds per run_to slice during drain and idle stretches — the
/// signal-polling granularity once no arrival bounds the horizon.
constexpr Time kDrainSlice = 0.25;

/// Admissions the p99 wait report (DaemonReport::p99_wait) looks back over.
constexpr std::size_t kWaitWindow = 512;

}  // namespace

struct Daemon::Impl {
  /// Maps one engine job to its external identity. Indexed by the CURRENT
  /// engine job id; compaction rebuilds the vector through the remap.
  struct JobMeta {
    std::uint64_t ext_id = 0;       ///< feed id / generator index
    std::uint64_t ext_cf_base = 0;  ///< first external coflow id of the job
    /// First engine coflow id of the job: the engine's own
    /// job(id).coflows.front(), rebuilt from it on recover.
    std::uint64_t sim_cf_base = 0;
  };

  explicit Impl(DaemonOptions options) : options_(std::move(options)) {
    validate();
    build();
  }

  // ------------------------------------------------------------------ setup

  void validate() {
    std::vector<ConfigError::Issue> issues;
    const DaemonOptions& o = options_;
    const std::vector<std::string>& names = scheduler_names();
    if (std::find(names.begin(), names.end(), o.scheduler) == names.end()) {
      std::string valid;
      for (const std::string& name : names)
        valid += (valid.empty() ? "" : ", ") + name;
      issues.push_back({"scheduler", "unknown scheduler \"" + o.scheduler +
                                         "\" (valid: " + valid + ")"});
    }
    if (o.queue_capacity < 1)
      issues.push_back({"queue_capacity", "must be at least 1"});
    const Watermarks& wm = o.watermarks;
    if (wm.active_flows_low > wm.active_flows_high)
      issues.push_back({"watermarks.active_flows",
                        "low watermark exceeds high (hysteresis inverted)"});
    if (o.compact_every < 0)
      issues.push_back({"compact_every", "must be >= 0"});
    if (o.checkpoint_every < 0)
      issues.push_back({"checkpoint_every", "must be >= 0"});
    if (o.checkpoint_every > 0 && o.checkpoint_path.empty())
      issues.push_back(
          {"checkpoint_path", "required when checkpoint_every > 0"});
    if (o.halt_after_checkpoints > 0 && o.checkpoint_every <= 0)
      issues.push_back({"halt_after_checkpoints",
                        "requires a checkpoint cadence (checkpoint_every)"});
    if (!(o.drain_deadline_wall > 0))
      issues.push_back({"drain_deadline_wall", "must be > 0"});
    if (o.drain_after_sim_time < 0)
      issues.push_back({"drain_after_sim_time", "must be >= 0"});
    if (o.sample_every < 0)
      issues.push_back({"sample_every", "must be >= 0"});
    if (o.sample_every > 0 && o.trace_mask == 0)
      issues.push_back({"sample_every",
                        "sampling emits trace records; set a trace mask"});
    if (!(o.max_sim_time > 0))
      issues.push_back({"max_sim_time", "must be > 0"});
    if (!issues.empty()) throw ConfigError("daemon options", issues);
  }

  void build() {
    FatTree::Config fabric_config;
    fabric_config.k = options_.fat_tree_k;
    fabric_config.link_capacity = options_.link_capacity;
    fabric_config.ecmp_salt = options_.ecmp_salt;
    fabric_ = std::make_unique<FatTree>(fabric_config);

    if (options_.use_feed) {
      // The feed may have been parsed before the fabric size was known;
      // re-check endpoints against the real host count so a bad job fails
      // here, aggregated, instead of at its admission instant.
      std::vector<ConfigError::Issue> issues;
      for (const FeedJob& job : options_.feed) {
        try {
          gurita::validate(job.spec, fabric_->num_hosts());
        } catch (const std::logic_error& e) {
          issues.push_back(
              {"feed job " + std::to_string(job.id), e.what()});
        }
      }
      if (!issues.empty()) throw ConfigError("daemon feed", issues);
    } else {
      OpenLoopGenerator::Config gen_config = options_.open_loop;
      gen_config.shape.num_hosts = fabric_->num_hosts();
      gen_.emplace(gen_config);
    }

    scheduler_ = make_scheduler(options_.scheduler);

    std::uint32_t mask = options_.trace_mask;
    if (options_.sample_every > 0) mask |= obs::TraceRecorder::kTimelineKinds;
    if (mask != 0) recorder_.emplace(mask);

    Simulator::Config sim_config;
    sim_config.max_time = options_.max_sim_time;
    if (recorder_) sim_config.trace = &*recorder_;
    if (options_.sample_every > 0) {
      obs::IntervalSampler::Config sampler_config;
      sampler_config.every = options_.sample_every;
      sampler_.emplace(sampler_config);
      accountant_.emplace();
      sim_config.sampler = &*sampler_;
      sim_config.memory = &*accountant_;
    }
    sim_ = std::make_unique<Simulator>(*fabric_, *scheduler_, sim_config);

    next_compact_ = options_.compact_every;
    next_checkpoint_ = options_.checkpoint_every;
  }

  // ------------------------------------------------------ trace emission

  void emit(obs::TraceRecord record) {
    if (recorder_) recorder_->emit(record);
  }

  // ------------------------------------------------------------ job source

  /// Stages the next source job into staged_ (a one-job lookahead unifying
  /// the feed and the generator). Returns false when the source is
  /// exhausted (or the admission budget is spent).
  bool stage_next() {
    if (staged_) return true;
    if (options_.use_feed) {
      if (next_source_ >= options_.feed.size()) return false;
      staged_ = options_.feed[next_source_];
    } else {
      if (options_.max_jobs > 0 && next_source_ >= options_.max_jobs)
        return false;
      FeedJob job;
      job.id = gen_->cursor().next_index;
      job.spec = gen_->next();
      staged_ = std::move(job);
    }
    ++next_source_;
    return true;
  }

  // ------------------------------------------------ admission / shedding

  [[nodiscard]] Time wait_p99() const {
    if (waits_.empty()) return 0;
    std::vector<Time> scratch(waits_.begin(), waits_.end());
    const std::size_t idx = percentile_rank_index(0.99, scratch.size());
    std::nth_element(scratch.begin(),
                     scratch.begin() + static_cast<std::ptrdiff_t>(idx),
                     scratch.end());
    return scratch[idx];
  }

  void push_wait(Time wait) {
    if (waits_.size() < kWaitWindow) {
      waits_.push_back(wait);
    } else {
      waits_[static_cast<std::size_t>(waits_total_ % kWaitWindow)] = wait;
    }
    ++waits_total_;
  }

  /// Hysteresis filter over the active-flow count.
  void refresh_overload() {
    const std::size_t flows = sim_->active_flow_count();
    const Watermarks& wm = options_.watermarks;
    if (flows >= wm.active_flows_high) {
      overloaded_ = true;
    } else if (flows < wm.active_flows_low) {
      overloaded_ = false;
    }
  }

  void admit_now(FeedJob job) {
    const Time now = sim_->now();
    const Time wait = std::max(0.0, now - job.spec.arrival_time);
    const std::uint64_t sim_cf_base = sim_->state().coflow_count();
    const JobId sim_id = sim_->admit(job.spec);
    GURITA_CHECK_MSG(sim_id.value() == jobs_meta_.size(),
                     "daemon job ledger out of sync with the engine");
    jobs_meta_.push_back({job.id, next_ext_coflow_, sim_cf_base});
    next_ext_coflow_ += job.spec.coflows.size();
    push_wait(wait);
    ++admitted_;
    peak_live_ = std::max(peak_live_, jobs_meta_.size());

    obs::TraceRecord rec;
    rec.kind = obs::TraceEventKind::kAdmit;
    rec.time = now;
    rec.job = job.id;
    rec.coflow = sim_id.value();
    rec.v0 = job.spec.arrival_time;
    rec.v1 = wait;
    rec.i0 = static_cast<std::int32_t>(queue_.size());
    emit(rec);
  }

  void shed(const FeedJob& job, ShedReason reason) {
    ++shed_total_;
    if (reason == ShedReason::kQueueFull) ++shed_queue_full_;
    if (reason == ShedReason::kDrain) ++shed_drain_;

    obs::TraceRecord rec;
    rec.kind = obs::TraceEventKind::kShed;
    rec.time = sim_->now();
    rec.job = job.id;
    rec.i0 = 0;  // the policy field: reject-new is the only policy
    rec.i1 = static_cast<std::int32_t>(reason);
    rec.i2 = static_cast<std::int32_t>(queue_.size());
    rec.v0 = job.spec.total_bytes();
    rec.v1 = job.spec.arrival_time;
    emit(rec);
  }

  /// Admits the queued backlog FIFO while the overload bit is clear.
  void service_queue() {
    while (!overloaded_ && !queue_.empty()) {
      FeedJob job = std::move(queue_.front());
      queue_.pop_front();
      admit_now(std::move(job));
    }
  }

  /// Routes one arrived job: straight into the engine when healthy, into
  /// the bounded queue under overload, shed (reject-new) on overflow.
  void dispatch(FeedJob job) {
    if (!overloaded_) {
      admit_now(std::move(job));
      return;
    }
    if (queue_.size() < options_.queue_capacity) {
      queue_.push_back(std::move(job));
      peak_queue_ = std::max(peak_queue_, queue_.size());
      return;
    }
    shed(job, ShedReason::kQueueFull);
  }

  // ---------------------------------------------------------- compaction

  /// Harvests a compaction's evicted results into the external-id ledger,
  /// then rebuilds the meta table through the compaction's remap (read only
  /// when something was evicted; it is incomplete otherwise).
  void harvest(const Simulator::Compaction& compaction) {
    for (const SimResults::JobResult& jr : compaction.jobs) {
      const JobMeta& meta = jobs_meta_[jr.id.value()];
      SimResults::JobResult out = jr;
      out.id = JobId{meta.ext_id};
      ledger_jobs_.push_back(out);
      makespan_ = std::max(makespan_, jr.finish);
      ++completed_;
    }
    for (const SimResults::CoflowResult& cr : compaction.coflows) {
      const JobMeta& meta = jobs_meta_[cr.job.value()];
      SimResults::CoflowResult out = cr;
      out.id = CoflowId{meta.ext_cf_base + (cr.id.value() - meta.sim_cf_base)};
      out.job = JobId{meta.ext_id};
      ledger_coflows_.push_back(out);
    }
    if (compaction.jobs_evicted == 0) return;
    const CompactionRemap& remap = compaction.remap;
    std::vector<JobMeta> survivors;
    survivors.reserve(jobs_meta_.size() - compaction.jobs_evicted);
    for (std::size_t old = 0; old < jobs_meta_.size(); ++old) {
      if (remap.job_map[old] == CompactionRemap::kEvicted) continue;
      JobMeta meta = jobs_meta_[old];
      meta.sim_cf_base = remap.coflow_map[meta.sim_cf_base];
      survivors.push_back(meta);
    }
    jobs_meta_ = std::move(survivors);
  }

  void do_compact() {
    harvest(sim_->compact());
    ++compactions_;
  }

  // ------------------------------------------------- checkpoint / recover

  [[nodiscard]] std::uint64_t source_fingerprint() const {
    if (options_.use_feed) return feed_fingerprint(options_.feed);
    Fnv1a h;
    const OpenLoopGenerator::Config& g = options_.open_loop;
    h.u64(g.shape.seed);
    h.u64(static_cast<std::uint64_t>(fabric_->num_hosts()));
    h.u64(static_cast<std::uint64_t>(g.shape.structure));
    h.u64(static_cast<std::uint64_t>(g.shape.max_width));
    h.f64(g.shape.width_pareto_alpha);
    h.f64(g.shape.flow_skew_sigma);
    h.f64(g.shape.stage_skew_sigma);
    h.u64(g.shape.category_weights.size());
    for (const double w : g.shape.category_weights) h.f64(w);
    h.u64(static_cast<std::uint64_t>(g.arrivals));
    h.f64(g.load);
    h.f64(g.service_rate);
    h.f64(g.mean_interarrival);
    h.u64(static_cast<std::uint64_t>(g.shape.burst_size));
    h.f64(g.shape.burst_spacing);
    h.u64(options_.max_jobs);
    return h.value();
  }

  void write_config_section(snapshot::Writer& w) const {
    const std::size_t token = w.begin_section();
    w.str(options_.scheduler);
    w.i32(options_.fat_tree_k);
    w.f64(options_.link_capacity);
    w.u64(options_.ecmp_salt);
    w.u8(options_.use_feed ? 0 : 1);
    w.u64(source_fingerprint());
    w.u64(options_.queue_capacity);
    w.u64(options_.watermarks.active_flows_high);
    w.u64(options_.watermarks.active_flows_low);
    w.f64(options_.compact_every);
    w.f64(options_.checkpoint_every);
    w.u32(recorder_ ? recorder_->mask() : 0);
    w.f64(options_.sample_every);
    w.u64(options_.max_jobs);
    w.end_section(token);
  }

  /// Reads the checkpoint's config section and aggregates every field that
  /// disagrees with this daemon's options into one ConfigError — resuming
  /// under a different configuration would diverge silently, which is the
  /// one thing a recovery path must never do.
  void check_config_section(snapshot::Reader& r,
                            const std::string& path) const {
    std::vector<ConfigError::Issue> issues;
    const auto check_str = [&](const char* name, const std::string& expect,
                               const std::string& got) {
      if (expect != got)
        issues.push_back({name, "checkpoint has '" + got +
                                    "', options say '" + expect + "'"});
    };
    const auto check_u64 = [&](const char* name, std::uint64_t expect,
                               std::uint64_t got) {
      if (expect != got)
        issues.push_back({name, "checkpoint has " + std::to_string(got) +
                                    ", options say " +
                                    std::to_string(expect)});
    };
    const auto check_f64 = [&](const char* name, double expect, double got) {
      if (std::bit_cast<std::uint64_t>(expect) !=
          std::bit_cast<std::uint64_t>(got))
        issues.push_back({name, "checkpoint has " + std::to_string(got) +
                                    ", options say " +
                                    std::to_string(expect)});
    };

    const std::size_t end = r.begin_section();
    check_str("scheduler", options_.scheduler, r.str());
    check_u64("fat_tree_k", static_cast<std::uint64_t>(options_.fat_tree_k),
              static_cast<std::uint64_t>(r.i32()));
    check_f64("link_capacity", options_.link_capacity, r.f64());
    check_u64("ecmp_salt", options_.ecmp_salt, r.u64());
    check_u64("source kind", options_.use_feed ? 0 : 1, r.u8());
    check_u64("source fingerprint", source_fingerprint(), r.u64());
    check_u64("queue_capacity", options_.queue_capacity, r.u64());
    check_u64("watermarks.active_flows_high",
              options_.watermarks.active_flows_high, r.u64());
    check_u64("watermarks.active_flows_low",
              options_.watermarks.active_flows_low, r.u64());
    check_f64("compact_every", options_.compact_every, r.f64());
    check_f64("checkpoint_every", options_.checkpoint_every, r.f64());
    check_u64("trace mask", recorder_ ? recorder_->mask() : 0, r.u32());
    check_f64("sample_every", options_.sample_every, r.f64());
    check_u64("max_jobs", options_.max_jobs, r.u64());
    r.skip_to(end);
    if (!issues.empty())
      throw ConfigError("--recover-from " + path, issues);
  }

  void write_dynamic_section(snapshot::Writer& w) const {
    const std::size_t token = w.begin_section();
    w.u64(next_source_);
    if (gen_) {
      w.u64(gen_->cursor().next_index);
      w.f64(gen_->cursor().clock);
    } else {
      w.u64(0);
      w.f64(0);
    }
    w.boolean(staged_.has_value());
    if (staged_) {
      w.u64(staged_->id);
      snapshot::write_job_spec(w, staged_->spec);
    }
    w.u64(queue_.size());
    for (const FeedJob& job : queue_) {
      w.u64(job.id);
      snapshot::write_job_spec(w, job.spec);
    }
    w.boolean(overloaded_);
    w.u64(admitted_);
    w.u64(shed_total_);
    w.u64(shed_queue_full_);
    w.u64(shed_drain_);
    w.u64(completed_);
    w.u64(compactions_);
    w.u64(checkpoints_);
    w.f64(next_compact_);
    w.f64(next_checkpoint_);
    w.f64(makespan_);
    w.u64(next_ext_coflow_);
    w.u64(waits_total_);
    w.u64(waits_.size());
    for (const Time wait : waits_) w.f64(wait);
    w.u64(peak_queue_);
    w.u64(peak_flows_);
    w.u64(peak_calendar_);
    w.u64(peak_live_);
    w.u64(jobs_meta_.size());
    for (const JobMeta& meta : jobs_meta_) {
      w.u64(meta.ext_id);
      w.u64(meta.ext_cf_base);
    }
    w.u64(ledger_jobs_.size());
    for (const SimResults::JobResult& jr : ledger_jobs_)
      snapshot::write_job_result(w, jr);
    w.u64(ledger_coflows_.size());
    for (const SimResults::CoflowResult& cr : ledger_coflows_)
      snapshot::write_coflow_result(w, cr);
    // The in-sim population: an open-horizon resume cannot rebuild the
    // admitted job set from the original inputs (it grew at runtime), so
    // the specs travel in the snapshot, in engine-id order, and recover()
    // resubmits them before Simulator::restore.
    w.u64(jobs_meta_.size());
    for (std::size_t i = 0; i < jobs_meta_.size(); ++i)
      snapshot::write_job_spec(w, sim_->state().job(JobId{i}).spec);
    w.end_section(token);
  }

  [[nodiscard]] std::vector<JobSpec> read_dynamic_section(
      snapshot::Reader& r) {
    const std::size_t end = r.begin_section();
    next_source_ = r.u64();
    gen_cursor_.next_index = r.u64();
    gen_cursor_.clock = r.f64();
    if (r.boolean()) {
      FeedJob job;
      job.id = r.u64();
      job.spec = snapshot::read_job_spec(r);
      staged_ = std::move(job);
    }
    // Every count below is read through Reader::count, so a hostile count
    // costs a SnapshotError, never an allocation the bytes cannot back.
    const std::uint64_t queued = r.count(8 + snapshot::kMinJobSpecBytes);
    for (std::uint64_t i = 0; i < queued; ++i) {
      FeedJob job;
      job.id = r.u64();
      job.spec = snapshot::read_job_spec(r);
      queue_.push_back(std::move(job));
    }
    overloaded_ = r.boolean();
    admitted_ = r.u64();
    shed_total_ = r.u64();
    shed_queue_full_ = r.u64();
    shed_drain_ = r.u64();
    completed_ = r.u64();
    compactions_ = r.u64();
    checkpoints_ = r.u64();
    next_compact_ = r.f64();
    next_checkpoint_ = r.f64();
    makespan_ = r.f64();
    next_ext_coflow_ = r.u64();
    waits_total_ = r.u64();
    const std::uint64_t nwaits = r.count(8);
    if (nwaits > kWaitWindow)
      throw snapshot::SnapshotError(
          "service snapshot: " + std::to_string(nwaits) +
          " admission waits exceed the " + std::to_string(kWaitWindow) +
          "-entry window");
    waits_.resize(nwaits);
    for (Time& wait : waits_) wait = r.f64();
    peak_queue_ = r.u64();
    peak_flows_ = r.u64();
    peak_calendar_ = r.u64();
    peak_live_ = r.u64();
    const std::uint64_t nmeta = r.count(16);
    jobs_meta_.resize(nmeta);
    for (JobMeta& meta : jobs_meta_) {
      meta.ext_id = r.u64();
      meta.ext_cf_base = r.u64();
    }
    ledger_jobs_.resize(r.count(snapshot::kJobResultBytes));
    for (SimResults::JobResult& jr : ledger_jobs_)
      jr = snapshot::read_job_result(r);
    ledger_coflows_.resize(r.count(snapshot::kCoflowResultBytes));
    for (SimResults::CoflowResult& cr : ledger_coflows_)
      cr = snapshot::read_coflow_result(r);
    const std::uint64_t nspecs = r.count(snapshot::kMinJobSpecBytes);
    if (nspecs != nmeta)
      throw snapshot::SnapshotError(
          "service snapshot: " + std::to_string(nspecs) + " job specs for " +
          std::to_string(nmeta) + " ledger entries");
    std::vector<JobSpec> specs;
    specs.reserve(nspecs);
    for (std::uint64_t i = 0; i < nspecs; ++i)
      specs.push_back(snapshot::read_job_spec(r));
    r.end_section(end);
    return specs;
  }

  void write_checkpoint() {
    ++checkpoints_;
    snapshot::Writer w;
    snapshot::write_header(w, snapshot::PayloadKind::kServiceState);
    write_config_section(w);
    write_dynamic_section(w);
    sim_->checkpoint(w);
    snapshot::write_snapshot_file(options_.checkpoint_path, w.take());
  }

  // ------------------------------------------------------------ main loop

  void note_peaks() {
    peak_flows_ = std::max(peak_flows_, sim_->active_flow_count());
    peak_calendar_ = std::max(peak_calendar_, sim_->calendar_size());
  }

  DaemonReport run_loop() {
    GURITA_CHECK_MSG(!spent_, "Daemon runs are one-shot");
    spent_ = true;
    // Prepare the engine up front so compact()/checkpoint() are legal at
    // every boundary, including a run whose source is empty.
    if (!sim_->open()) (void)sim_->run_to(sim_->now());

    // Ratcheted slice bound for stretches where no arrival or cadence
    // bounds the horizon. run_to pauses *before* the first event at or
    // beyond the bound — it does not advance the clock to it — so the
    // bound must ratchet past now() or an idle slice would never reach a
    // far-future completion.
    Time idle_bound = 0;
    // Furthest horizon actually processed. run_to leaves now() at the last
    // event *below* the bound, so the drain_after trigger must compare
    // against the bound we ran to, not the clock — with no event near the
    // trigger the clock would never reach it.
    Time reached = sim_->now();

    while (true) {
      if (options_.poll_signals) {
        const int sig = pending_signal();
        if (sig != 0) return finish_run(sig, true);
      }
      if (options_.drain_after_sim_time > 0 &&
          reached >= options_.drain_after_sim_time)
        return finish_run(0, true);

      const bool have_next = stage_next();
      if (!have_next && !sim_->pending()) {
        if (!queue_.empty()) {
          // The fabric is idle, so whatever tripped the watermarks has
          // fully drained; release the backlog even if a zero low
          // watermark would keep the stale overload bit latched.
          overloaded_ = false;
          service_queue();
          continue;
        }
        return finish_run(0, false);  // natural end: nothing left anywhere
      }
      Time bound = have_next ? staged_->spec.arrival_time : kInf;
      if (options_.compact_every > 0)
        bound = std::min(bound, next_compact_);
      if (options_.checkpoint_every > 0)
        bound = std::min(bound, next_checkpoint_);
      if (options_.drain_after_sim_time > 0)
        bound = std::min(bound, options_.drain_after_sim_time);
      if (bound == kInf) {
        // No arrival or cadence bounds the horizon: advance in finite
        // slices so the signal latch stays responsive while draining the
        // tail organically.
        idle_bound = std::max(idle_bound, sim_->now()) + kDrainSlice;
        bound = idle_bound;
      }
      (void)sim_->run_to(bound);
      reached = std::max(reached, bound);

      // Boundary work in fixed order — watermarks, then the queued
      // backlog, then new arrivals, then compaction, then the checkpoint
      // capturing all of it. The order is part of the determinism
      // contract: every step is a pure function of sim state + options.
      note_peaks();
      refresh_overload();
      service_queue();
      while (stage_next() && staged_->spec.arrival_time <= bound) {
        FeedJob job = std::move(*staged_);
        staged_.reset();
        dispatch(std::move(job));
      }
      if (options_.compact_every > 0 && next_compact_ <= bound) {
        do_compact();
        next_compact_ += options_.compact_every;
      }
      if (options_.checkpoint_every > 0 && next_checkpoint_ <= bound) {
        // Advance the cadence before writing so the snapshot carries the
        // post-boundary value and a recovered run doesn't re-checkpoint
        // the same boundary.
        next_checkpoint_ += options_.checkpoint_every;
        write_checkpoint();
        if (options_.halt_after_checkpoints > 0 &&
            checkpoints_ >=
                static_cast<std::uint64_t>(options_.halt_after_checkpoints))
          throw snapshot::HaltedError(
              "gurita_daemon: halted on purpose after " +
              std::to_string(checkpoints_) + " checkpoints");
      }
    }
  }

  /// Admission is over: shed the queue, drain in-flight work under the
  /// wall-clock deadline (when `drain` — a natural end arrives here with
  /// the fabric already empty), then assemble the report.
  DaemonReport finish_run(int cause, bool drain) {
    staged_.reset();  // drawn but never arrived; not admitted, not shed
    DaemonReport report;
    if (drain) {
      report.drain_cause = cause;
      obs::TraceRecord rec;
      rec.kind = obs::TraceEventKind::kDrainStart;
      rec.time = sim_->now();
      rec.i0 = cause;
      rec.i1 = static_cast<std::int32_t>(queue_.size());
      emit(rec);
      while (!queue_.empty()) {
        shed(queue_.front(), ShedReason::kDrain);
        queue_.pop_front();
      }
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(options_.drain_deadline_wall));
      Time bound = sim_->now();
      while (sim_->pending()) {
        if (std::chrono::steady_clock::now() >= deadline) {
          report.drain_deadline_expired = true;
          break;
        }
        bound += kDrainSlice;
        if (!sim_->run_to(bound)) break;
        note_peaks();
      }
    }
    finalize(report);
    return report;
  }

  void finalize(DaemonReport& report) {
    // One last compaction harvests every terminal job still in the stores,
    // so the export is complete whatever the cadence (including compaction
    // disabled — the ledger is then filled entirely here).
    harvest(sim_->compact());

    SimResults out = sim_->partial_results();
    std::sort(ledger_jobs_.begin(), ledger_jobs_.end(),
              [](const SimResults::JobResult& a,
                 const SimResults::JobResult& b) {
                return a.id.value() < b.id.value();
              });
    std::sort(ledger_coflows_.begin(), ledger_coflows_.end(),
              [](const SimResults::CoflowResult& a,
                 const SimResults::CoflowResult& b) {
                return a.id.value() < b.id.value();
              });
    out.jobs = std::move(ledger_jobs_);
    out.coflows = std::move(ledger_coflows_);
    out.makespan = makespan_;
    if (recorder_) out.trace = recorder_->take();
    if (accountant_) {
      out.diagnostics.memory = *accountant_;
      report.peak_state_bytes =
          accountant_->peak(obs::MemoryAccountant::Subsystem::kState);
    }

    report.admitted = admitted_;
    report.shed_total = shed_total_;
    report.shed_queue_full = shed_queue_full_;
    report.shed_drain = shed_drain_;
    report.completed = completed_;
    report.compactions = compactions_;
    report.checkpoints = checkpoints_;
    report.p99_wait = wait_p99();
    report.final_sim_time = sim_->now();
    report.peak_queue_depth = peak_queue_;
    report.peak_active_flows = peak_flows_;
    report.peak_calendar = peak_calendar_;
    report.peak_live_jobs = peak_live_;

    JctCollector collector;
    collector.add(out);
    report.comparison.collectors.emplace(options_.scheduler,
                                         std::move(collector));
    report.comparison.results.emplace(options_.scheduler, std::move(out));
  }

  DaemonReport recover(const std::string& path) {
    const std::string payload = snapshot::read_snapshot_file(path);
    snapshot::Reader r(payload);
    if (snapshot::read_header(r) != snapshot::PayloadKind::kServiceState)
      throw snapshot::SnapshotError("not a service-daemon snapshot: " + path);
    check_config_section(r, path);
    const std::vector<JobSpec> in_sim = read_dynamic_section(r);
    for (const JobSpec& spec : in_sim) (void)sim_->submit(spec);
    sim_->restore(r);
    for (std::size_t i = 0; i < jobs_meta_.size(); ++i)
      jobs_meta_[i].sim_cf_base =
          sim_->state().job(JobId{i}).coflows.front().value();
    if (gen_) gen_->restore_cursor(gen_cursor_);
    return run_loop();
  }

  // --------------------------------------------------------------- members

  DaemonOptions options_;
  std::unique_ptr<FatTree> fabric_;
  std::unique_ptr<Scheduler> scheduler_;
  std::optional<obs::TraceRecorder> recorder_;
  std::optional<obs::IntervalSampler> sampler_;
  std::optional<obs::MemoryAccountant> accountant_;
  std::optional<OpenLoopGenerator> gen_;
  std::unique_ptr<Simulator> sim_;
  bool spent_ = false;

  std::uint64_t next_source_ = 0;  ///< source jobs drawn, staged_ included
  OpenLoopGenerator::Cursor gen_cursor_;  ///< recover() scratch
  std::optional<FeedJob> staged_;
  std::deque<FeedJob> queue_;
  bool overloaded_ = false;

  std::vector<Time> waits_;  ///< recent admission waits (ring, serialized)
  std::uint64_t waits_total_ = 0;

  std::vector<JobMeta> jobs_meta_;  ///< by current engine job id
  std::uint64_t next_ext_coflow_ = 0;
  std::vector<SimResults::JobResult> ledger_jobs_;
  std::vector<SimResults::CoflowResult> ledger_coflows_;
  Time makespan_ = 0;

  Time next_compact_ = 0;
  Time next_checkpoint_ = 0;

  std::uint64_t admitted_ = 0;
  std::uint64_t shed_total_ = 0;
  std::uint64_t shed_queue_full_ = 0;
  std::uint64_t shed_drain_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t checkpoints_ = 0;
  std::size_t peak_queue_ = 0;
  std::size_t peak_flows_ = 0;
  std::size_t peak_calendar_ = 0;
  std::size_t peak_live_ = 0;
};

Daemon::Daemon(DaemonOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Daemon::~Daemon() = default;

DaemonReport Daemon::run() { return impl_->run_loop(); }

DaemonReport Daemon::recover(const std::string& snapshot_path) {
  return impl_->recover(snapshot_path);
}

}  // namespace gurita::service
