#include "snapshot/snapshot.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "common/atomic_file.h"
#include "common/fnv.h"

namespace gurita {

namespace {

using snapshot::Reader;
using snapshot::SnapshotError;
using snapshot::Writer;

}  // namespace

/// Serializer for the simulator's private dynamic state. A separate class
/// (befriended by Simulator and SimState) keeps the field-by-field encoding
/// knowledge out of the engine: simulator.cpp never mentions the snapshot
/// format, and this file never duplicates engine logic — it copies state.
class SnapshotCodec {
 public:
  /// Everything the snapshot does NOT carry but correctness depends on:
  /// the restoring simulator must be built from the same fabric, scheduler,
  /// config and submitted job set. Mismatches throw SnapshotError before
  /// any state is touched.
  static void save_fingerprint(const Simulator& s, Writer& w) {
    const std::size_t token = w.begin_section();
    w.str(s.scheduler_->name());
    w.u64(static_cast<std::uint64_t>(s.fabric_->num_hosts()));
    w.u64(s.fabric_->topology().link_count());
    w.u64(s.state_.jobs_.size());
    w.u64(s.state_.coflows_.size());
    w.boolean(s.config_.trace != nullptr);
    w.u32(s.config_.trace != nullptr ? s.config_.trace->mask() : 0);
    // Sampler presence + config: a resumed run with a different sampling
    // grid would interleave different kSample records into the trace, so
    // it is structure, not just telemetry.
    const obs::IntervalSampler* sampler = s.config_.sampler;
    w.boolean(sampler != nullptr);
    w.f64(sampler != nullptr ? sampler->config().every : 0.0);
    w.u64(static_fingerprint(s));
    w.end_section(token);
  }

  static void verify_fingerprint(const Simulator& s, Reader& r) {
    const std::size_t end = r.begin_section();
    check(r.str() == s.scheduler_->name(), "scheduler mismatch");
    check(r.u64() == static_cast<std::uint64_t>(s.fabric_->num_hosts()),
          "host count mismatch");
    check(r.u64() == s.fabric_->topology().link_count(),
          "link count mismatch");
    check(r.u64() == s.state_.jobs_.size(), "job population mismatch");
    check(r.u64() == s.state_.coflows_.size(), "coflow population mismatch");
    check(r.boolean() == (s.config_.trace != nullptr),
          "trace recorder attached on one side only");
    check(r.u32() ==
              (s.config_.trace != nullptr ? s.config_.trace->mask() : 0),
          "trace filter mask mismatch");
    const obs::IntervalSampler* sampler = s.config_.sampler;
    check(r.boolean() == (sampler != nullptr),
          "interval sampler attached on one side only");
    check(r.f64() == (sampler != nullptr ? sampler->config().every : 0.0),
          "sampler interval mismatch");
    check(r.u64() == static_fingerprint(s),
          "job/fault inputs mismatch");
    r.end_section(end);
  }

  static void save(const Simulator& s, Writer& w) {
    save_engine(s, w);
    save_trace(s, w);
    save_sampler(s, w);
    const std::size_t token = w.begin_section();
    s.scheduler_->save_state(w);
    w.end_section(token);
  }

  static void load(Simulator& s, Reader& r) {
    load_engine(s, r);
    load_trace(s, r);
    load_sampler(s, r);
    const std::size_t end = r.begin_section();
    s.scheduler_->load_state(r);
    r.end_section(end);
  }

 private:
  static void check(bool ok, const char* what) {
    if (!ok)
      throw SnapshotError(std::string("snapshot fingerprint rejected: ") +
                          what);
  }

  static void corrupt_if(bool bad, const char* what, const char* detail = "") {
    if (bad)
      throw SnapshotError(std::string("corrupt snapshot: ") + what + detail);
  }

  /// True when flow `fid` (in range) sits in the restored active set.
  static bool in_active_set(const Simulator& s, std::uint64_t fid) {
    const std::uint32_t pos = s.pos_in_active_[fid];
    return pos < s.active_.size() && s.active_[pos] == &s.state_.flows_[fid];
  }

  /// A flow calendar's entries (f64 key, u64 flow id) in heap layout order,
  /// so restore installs the array without re-sorting.
  static void save_calendar(const FlowCalendar& calendar, Writer& w) {
    w.u64(calendar.entries().size());
    for (const FlowCalendar::Entry& e : calendar.entries()) {
      w.f64(e.key);
      w.u64(e.flow.value());
    }
  }

  /// Reads what save_calendar wrote into `calendar`, indexed over the flow
  /// store. The step loop indexes the flow store with its flow ids and
  /// trusts its heap order, so a corrupt calendar is rejected here rather
  /// than run on: an id out of range or repeated, a flow `may_hold`
  /// refuses (`refusal` says why), a NaN key or a broken heap order.
  /// `name` starts every error message.
  template <typename MayHold>
  static void load_calendar(Simulator& s, Reader& r, FlowCalendar& calendar,
                            const char* name, const char* refusal,
                            MayHold may_hold) {
    const std::uint64_t n_flows = s.state_.flows_.size();
    const std::uint64_t n = r.count(16);  // f64 key, u64 flow
    std::vector<FlowCalendar::Entry> entries;
    entries.reserve(n);
    std::vector<char> seen(n_flows, 0);
    for (std::uint64_t i = 0; i < n; ++i) {
      FlowCalendar::Entry e;
      e.key = r.f64();
      const std::uint64_t fid = r.u64();
      corrupt_if(fid >= n_flows, name, " flow id out of range");
      corrupt_if(!may_hold(fid), name, refusal);
      corrupt_if(seen[fid] != 0, name, " flow id repeated");
      seen[fid] = 1;
      e.flow = FlowId{fid};
      entries.push_back(e);
    }
    corrupt_if(!FlowCalendar::is_heap(entries), name,
               " key is NaN or breaks the (key, flow id) heap order");
    calendar.restore(std::move(entries), n_flows);
  }

  /// A parked or backing-off flow: aborted, waiting to restart, and in
  /// neither the active set nor a failed job.
  static bool backing_off(const Simulator& s, std::uint64_t fid) {
    const SimFlow& f = s.state_.flows_[fid];
    return !f.finished() && !f.cancelled && f.abort_time >= 0 &&
           !in_active_set(s, fid);
  }

  /// Hash of the static inputs reconstructed (not serialized) on restore:
  /// submitted jobs and the fault plan. The flow population and routes
  /// derive from these plus the topology, which the explicit host/link
  /// counts already pin down.
  static std::uint64_t static_fingerprint(const Simulator& s) {
    Fnv1a h;
    for (const SimJob& j : s.state_.jobs_) {
      h.f64(j.arrival_time);
      h.f64(j.total_bytes);
      h.u64(static_cast<std::uint64_t>(j.num_stages));
      h.u64(static_cast<std::uint64_t>(j.coflows.size()));
    }
    h.u64(static_cast<std::uint64_t>(s.config_.faults.events.size()));
    for (const FaultEvent& e : s.config_.faults.events) {
      h.f64(e.time);
      h.u64(static_cast<std::uint64_t>(e.kind));
      h.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.host)));
      h.u64(e.link.value());
      h.f64(e.factor);
    }
    h.u64(s.config_.faults.seed);
    h.u64(static_cast<std::uint64_t>(s.config_.faults.retry.max_attempts));
    h.f64(s.config_.faults.retry.base_delay);
    return h.value();
  }

  static void save_engine(const Simulator& s, Writer& w) {
    const std::size_t token = w.begin_section();
    w.f64(s.now_);
    w.boolean(s.dirty_);
    w.u64(s.iterations_);
    w.u64(s.next_arrival_);
    w.f64(s.next_tick_);

    w.u64(s.capacities_.size());
    for (Rate c : s.capacities_) w.f64(c);

    // Flow store: everything except the id (the index) and the priority
    // (v11). The route travels verbatim (v3): it was drawn by ECMP-hashing
    // the flow's id at release, and compaction renumbers ids — recomputing
    // from the current id would silently re-route every compacted flow.
    w.u64(s.state_.flows_.size());
    for (const SimFlow& f : s.state_.flows_) {
      w.u64(f.job.value());
      w.i32(f.coflow_index);
      w.i32(f.src_host);
      w.i32(f.dst_host);
      w.u64(f.path.size());
      for (LinkId l : f.path) w.u64(l.value());
      w.f64(f.size);
      w.f64(f.remaining);
      w.f64(f.start_time);
      w.f64(f.finish_time);
      w.f64(f.rate);
      w.f64(f.last_touched);
      w.i32(f.attempts);
      w.f64(f.lost_bytes);
      w.f64(f.abort_time);
      w.boolean(f.cancelled);
    }

    // Coflow/job dynamic fields (static fields are rebuilt by submit()).
    w.u64(s.state_.coflows_.size());
    for (const SimCoflow& c : s.state_.coflows_) {
      w.u64(c.flows.size());
      for (FlowId fid : c.flows) w.u64(fid.value());
      w.i32(c.flows_remaining);
      w.i32(c.deps_remaining);
      w.f64(c.release_time);
      w.f64(c.finish_time);
    }
    w.u64(s.state_.jobs_.size());
    for (const SimJob& j : s.state_.jobs_) {
      w.i32(j.coflows_remaining);
      w.f64(j.finish_time);
      w.boolean(j.failed);
      w.i32(j.completed_stages);
    }
    for (const SimState::CoflowAggregate& a : s.state_.aggregates_) {
      w.f64(a.base_bytes);
      w.f64(a.rate_sum);
      w.f64(a.rate_time_sum);
      w.f64(a.ell_max_settled);
      w.i32(a.open_connections);
    }

    // Active set in its exact order (arrival order modulo swap-with-last
    // removals): the order feeds the allocator and scheduler, so it is
    // state, not an implementation detail.
    w.u64(s.active_.size());
    for (const SimFlow* f : s.active_) w.u64(f->id.value());

    // Calendar: its live entries, one per flow with a projected finish.
    save_calendar(s.calendar_, w);

    // Partial result counters of the paused run.
    w.u64(s.results_.rate_recomputations);
    w.u64(s.results_.events);
    w.u64(s.results_.flow_touches);
    w.u64(s.results_.flow_aborts);
    w.u64(s.results_.flow_retries);
    w.u64(s.results_.failed_jobs);
    w.f64(s.results_.bytes_lost);
    w.f64(s.results_.bytes_retransmitted);
    w.f64(s.results_.total_recovery_latency);

    // Fault-injection runtime.
    w.boolean(s.have_faults_);
    if (s.have_faults_) {
      w.u64(s.next_fault_);
      w.u64(s.host_down_.size());
      for (char d : s.host_down_) w.u8(static_cast<std::uint8_t>(d));
      w.u64(s.link_down_.size());
      for (char d : s.link_down_) w.u8(static_cast<std::uint8_t>(d));
      for (double f : s.straggler_) w.f64(f);
      for (Rate c : s.saved_capacity_) w.f64(c);
      w.u64(s.parked_.size());
      for (FlowId fid : s.parked_) w.u64(fid.value());
      save_calendar(s.retries_, w);
    }
    w.end_section(token);
  }

  static void load_engine(Simulator& s, Reader& r) {
    const std::size_t end = r.begin_section();
    s.now_ = r.f64();
    s.dirty_ = r.boolean();
    s.iterations_ = r.u64();
    s.next_arrival_ = r.u64();
    s.next_tick_ = r.f64();

    const std::uint64_t n_caps = r.u64();
    check(n_caps == s.capacities_.size(), "link capacity vector size");
    for (Rate& c : s.capacities_) c = r.f64();

    // prepare_structures() reserved the flow store for the full population;
    // refill it with the serialized routes (v3, see save_engine). The
    // engine indexes jobs, coflows, hosts and links with these fields, so
    // each must name an entity the restoring simulator has.
    const std::uint64_t n_flows = r.u64();
    check(n_flows <= s.state_.flows_.capacity(),
          "flow count exceeds the submitted population");
    const std::uint64_t n_jobs = s.state_.jobs_.size();
    const std::uint64_t n_hosts =
        static_cast<std::uint64_t>(s.fabric_->num_hosts());
    const auto bad_host = [&](std::int32_t h) {
      return h < 0 || static_cast<std::uint64_t>(h) >= n_hosts;
    };
    s.state_.flows_.clear();
    for (std::uint64_t i = 0; i < n_flows; ++i) {
      SimFlow f;
      f.id = FlowId{i};
      const std::uint64_t job = r.u64();
      corrupt_if(job >= n_jobs, "flow job out of range");
      f.job = JobId{job};
      f.coflow_index = r.i32();
      corrupt_if(f.coflow_index < 0 ||
                     static_cast<std::size_t>(f.coflow_index) >=
                         s.state_.jobs_[job].coflows.size(),
                 "flow coflow index out of range");
      f.src_host = r.i32();
      f.dst_host = r.i32();
      corrupt_if(bad_host(f.src_host) || bad_host(f.dst_host),
                 "flow host out of range");
      const std::uint64_t n_hops = r.count(8);
      f.path.reserve(n_hops);
      for (std::uint64_t h = 0; h < n_hops; ++h) {
        const std::uint64_t link = r.u64();
        corrupt_if(link >= n_caps, "flow path link out of range");
        f.path.push_back(LinkId{link});
      }
      f.size = r.f64();
      f.remaining = r.f64();
      f.start_time = r.f64();
      f.finish_time = r.f64();
      f.rate = r.f64();
      f.last_touched = r.f64();
      f.attempts = r.i32();
      f.lost_bytes = r.f64();
      f.abort_time = r.f64();
      f.cancelled = r.boolean();
      s.state_.flows_.push_back(std::move(f));
    }

    check(r.u64() == s.state_.coflows_.size(), "coflow count");
    for (SimCoflow& c : s.state_.coflows_) {
      c.flows.clear();
      const std::uint64_t n = r.count(8);
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t fid = r.u64();
        corrupt_if(fid >= n_flows, "coflow flow id out of range");
        const SimFlow& f = s.state_.flows_[fid];
        corrupt_if(s.state_.jobs_[f.job.value()].coflows[f.coflow_index] !=
                       c.id,
                   "coflow lists a flow of another coflow");
        c.flows.push_back(FlowId{fid});
      }
      c.flows_remaining = r.i32();
      c.deps_remaining = r.i32();
      c.release_time = r.f64();
      c.finish_time = r.f64();
    }
    check(r.u64() == s.state_.jobs_.size(), "job count");
    for (SimJob& j : s.state_.jobs_) {
      j.coflows_remaining = r.i32();
      j.finish_time = r.f64();
      j.failed = r.boolean();
      j.completed_stages = r.i32();
    }
    for (SimState::CoflowAggregate& a : s.state_.aggregates_) {
      a.base_bytes = r.f64();
      a.rate_sum = r.f64();
      a.rate_time_sum = r.f64();
      a.ell_max_settled = r.f64();
      a.open_connections = r.i32();
    }

    // The active set holds distinct transmitting flows: released, not
    // finished, not cancelled and not backing off after an abort.
    const std::uint64_t n_active = r.u64();
    check(n_active <= n_flows, "active set larger than the flow store");
    s.active_.clear();
    s.pos_in_active_.assign(s.state_.flows_.size(), 0);
    std::vector<char> active(n_flows, 0);
    for (std::uint64_t i = 0; i < n_active; ++i) {
      const std::uint64_t fid = r.u64();
      check(fid < s.state_.flows_.size(), "active flow id out of range");
      const SimFlow& f = s.state_.flows_[fid];
      corrupt_if(active[fid] != 0, "active flow id repeated");
      corrupt_if(f.finished() || f.cancelled || f.abort_time >= 0,
                 "active set holds a flow that is not transmitting");
      active[fid] = 1;
      s.pos_in_active_[fid] = static_cast<std::uint32_t>(i);
      s.active_.push_back(&s.state_.flows_[fid]);
    }
    // Gurita's WRR demand reads open connections: they must count each
    // coflow's flows in the active set.
    std::vector<std::int32_t> open(s.state_.coflows_.size(), 0);
    for (const SimFlow* f : s.active_)
      ++open[s.state_.jobs_[f->job.value()].coflows[f->coflow_index].value()];
    for (std::size_t c = 0; c < open.size(); ++c)
      corrupt_if(s.state_.aggregates_[c].open_connections != open[c],
                 "coflow open connections disagree with the active set");

    load_calendar(s, r, s.calendar_, "calendar",
                  " entry for a flow outside the active set",
                  [&](std::uint64_t fid) {
                    return !s.state_.flows_[fid].finished() &&
                           in_active_set(s, fid);
                  });

    s.results_.rate_recomputations = r.u64();
    s.results_.events = r.u64();
    s.results_.flow_touches = r.u64();
    s.results_.flow_aborts = r.u64();
    s.results_.flow_retries = r.u64();
    s.results_.failed_jobs = r.u64();
    s.results_.bytes_lost = r.f64();
    s.results_.bytes_retransmitted = r.f64();
    s.results_.total_recovery_latency = r.f64();

    check(r.boolean() == s.have_faults_, "fault plan presence");
    if (s.have_faults_) {
      s.next_fault_ = r.u64();
      check(r.u64() == s.host_down_.size(), "host vector size");
      for (char& d : s.host_down_) d = static_cast<char>(r.u8());
      check(r.u64() == s.link_down_.size(), "link vector size");
      for (char& d : s.link_down_) d = static_cast<char>(r.u8());
      for (double& f : s.straggler_) f = r.f64();
      for (Rate& c : s.saved_capacity_) c = r.f64();
      // reconsider_parked, fire_due_retries and compact() index the flow
      // store with these ids: each must name a distinct backing-off flow,
      // parked or queued for retry, never both.
      std::vector<char> parked(n_flows, 0);
      const std::uint64_t n_parked = r.count(8);
      s.parked_.clear();
      s.parked_.reserve(n_parked);
      for (std::uint64_t i = 0; i < n_parked; ++i) {
        const std::uint64_t fid = r.u64();
        corrupt_if(fid >= n_flows, "parked flow id out of range");
        corrupt_if(!backing_off(s, fid),
                   "parked entry for a flow that is not backing off");
        corrupt_if(parked[fid] != 0, "parked flow id repeated");
        parked[fid] = 1;
        s.parked_.push_back(FlowId{fid});
      }
      load_calendar(s, r, s.retries_, "retry",
                    " entry for a parked flow or one that is not backing off",
                    [&](std::uint64_t fid) {
                      return parked[fid] == 0 && backing_off(s, fid);
                    });
    }
    s.state_.now_ = s.now_;
    r.end_section(end);
  }

  static void save_trace(const Simulator& s, Writer& w) {
    const std::size_t token = w.begin_section();
    const obs::TraceRecorder* tr = s.config_.trace;
    w.boolean(tr != nullptr);
    if (tr != nullptr) {
      w.u64(tr->records().size());
      for (const obs::TraceRecord& rec : tr->records())
        snapshot::write_trace_record(w, rec);
    }
    w.end_section(token);
  }

  static void load_trace(Simulator& s, Reader& r) {
    const std::size_t end = r.begin_section();
    const bool attached = r.boolean();
    // Presence already fingerprint-checked; re-check defensively.
    check(attached == (s.config_.trace != nullptr),
          "trace recorder presence");
    if (attached) {
      const std::uint64_t n = r.count(snapshot::kTraceRecordBytes);
      std::vector<obs::TraceRecord> records;
      records.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i)
        records.push_back(snapshot::read_trace_record(r));
      s.config_.trace->restore(std::move(records));
    }
    r.end_section(end);
  }

  /// Sampler boundary cursor: grid index and the event count at the last
  /// emitted boundary. Already-emitted sample records ride the trace
  /// section; the cursor makes the *next* boundary land exactly where the
  /// uninterrupted run's would (DESIGN.md §14).
  static void save_sampler(const Simulator& s, Writer& w) {
    const std::size_t token = w.begin_section();
    const obs::IntervalSampler* sampler = s.config_.sampler;
    w.boolean(sampler != nullptr);
    if (sampler != nullptr) {
      const obs::IntervalSampler::Cursor c = sampler->cursor();
      w.u64(c.k);
      w.u64(c.last_events);
    }
    w.end_section(token);
  }

  static void load_sampler(Simulator& s, Reader& r) {
    const std::size_t end = r.begin_section();
    const bool attached = r.boolean();
    check(attached == (s.config_.sampler != nullptr),
          "interval sampler presence");
    if (attached) {
      obs::IntervalSampler::Cursor c;
      c.k = r.u64();
      c.last_events = r.u64();
      s.config_.sampler->restore_cursor(c);
    }
    r.end_section(end);
  }
};

void Simulator::checkpoint(snapshot::Writer& w) const {
  GURITA_CHECK_MSG(prepared_ && !collected_,
                   "checkpoint() outside a paused run (use run_to first)");
  snapshot::write_header(w, snapshot::PayloadKind::kSimulatorState);
  SnapshotCodec::save_fingerprint(*this, w);
  SnapshotCodec::save(*this, w);
}

void Simulator::restore(snapshot::Reader& r) {
  GURITA_CHECK_MSG(!prepared_, "restore() into a simulator that already ran");
  const snapshot::PayloadKind kind = snapshot::read_header(r);
  if (kind != snapshot::PayloadKind::kSimulatorState)
    throw snapshot::SnapshotError("not a simulator-state snapshot");
  obs::PhaseProfiler* prof = config_.profiler;
  if (prof != nullptr) prof->begin_run();
  const int setup_prev =
      prof != nullptr ? prof->enter(obs::Phase::kSetup) : -1;
  // Same static setup as a fresh run; the fingerprint then proves the
  // reconstructed structures match what the checkpointed run was built on,
  // and the codec overwrites every dynamic field.
  prepare_structures();
  SnapshotCodec::verify_fingerprint(*this, r);
  SnapshotCodec::load(*this, r);
  // The incremental allocator's membership/frontier state is not
  // serialized: rebuilding it from the restored active set leaves every
  // member link dirty, so the first allocation re-solves the whole set —
  // byte-identical to the cached rates an uninterrupted run carries,
  // because allocation is a pure function of (flows, tiers, weights, caps).
  alloc_.rebuild(active_);
  prepared_ = true;
  if (prof != nullptr) prof->leave(setup_prev);
}

namespace snapshot {

void write_header(Writer& w, PayloadKind kind) {
  w.u32(kMagic);
  w.u32(kFormatVersion);
  w.u8(static_cast<std::uint8_t>(kind));
}

PayloadKind read_header(Reader& r) {
  if (r.u32() != kMagic)
    throw SnapshotError("bad snapshot magic (not a snapshot file?)");
  const std::uint32_t version = r.u32();
  if (version != kFormatVersion)
    throw SnapshotError("unsupported snapshot format version " +
                        std::to_string(version) + " (this build reads " +
                        std::to_string(kFormatVersion) + ")");
  const std::uint8_t kind = r.u8();
  if (kind != static_cast<std::uint8_t>(PayloadKind::kSimulatorState) &&
      kind != static_cast<std::uint8_t>(PayloadKind::kServiceState))
    throw SnapshotError("unknown snapshot payload kind " +
                        std::to_string(kind));
  return static_cast<PayloadKind>(kind);
}

void write_trace_record(Writer& w, const obs::TraceRecord& record) {
  w.f64(record.time);
  w.u64(record.job);
  w.u64(record.coflow);
  w.u64(record.flow);
  w.f64(record.v0);
  w.f64(record.v1);
  w.f64(record.v2);
  w.f64(record.v3);
  w.f64(record.v4);
  w.f64(record.v5);
  w.i32(record.i0);
  w.i32(record.i1);
  w.i32(record.i2);
  w.u8(static_cast<std::uint8_t>(record.kind));
}

obs::TraceRecord read_trace_record(Reader& r) {
  obs::TraceRecord rec;
  rec.time = r.f64();
  rec.job = r.u64();
  rec.coflow = r.u64();
  rec.flow = r.u64();
  rec.v0 = r.f64();
  rec.v1 = r.f64();
  rec.v2 = r.f64();
  rec.v3 = r.f64();
  rec.v4 = r.f64();
  rec.v5 = r.f64();
  rec.i0 = r.i32();
  rec.i1 = r.i32();
  rec.i2 = r.i32();
  const std::uint8_t kind = r.u8();
  if (kind >= obs::kNumTraceEventKinds)
    throw SnapshotError("unknown trace record kind in snapshot");
  rec.kind = static_cast<obs::TraceEventKind>(kind);
  return rec;
}

void write_job_spec(Writer& w, const JobSpec& spec) {
  w.f64(spec.arrival_time);
  w.f64(spec.deadline);
  w.u64(spec.coflows.size());
  for (const CoflowSpec& c : spec.coflows) {
    w.u64(c.flows.size());
    for (const FlowSpec& f : c.flows) {
      w.i32(f.src_host);
      w.i32(f.dst_host);
      w.f64(f.size);
    }
  }
  w.u64(spec.deps.size());
  for (const std::vector<int>& d : spec.deps) {
    w.u64(d.size());
    for (int dep : d) w.i32(dep);
  }
}

JobSpec read_job_spec(Reader& r) {
  JobSpec spec;
  spec.arrival_time = r.f64();
  spec.deadline = r.f64();
  spec.coflows.resize(r.count(8));  // each carries its u64 flow count
  for (CoflowSpec& c : spec.coflows) {
    c.flows.resize(r.count(16));  // i32 src, i32 dst, f64 size
    for (FlowSpec& f : c.flows) {
      f.src_host = r.i32();
      f.dst_host = r.i32();
      f.size = r.f64();
    }
  }
  spec.deps.resize(r.count(8));  // each carries its u64 length
  for (std::vector<int>& d : spec.deps) {
    d.resize(r.count(4));
    for (int& dep : d) dep = r.i32();
  }
  return spec;
}

void write_job_result(Writer& w, const SimResults::JobResult& job) {
  w.u64(job.id.value());
  w.f64(job.arrival);
  w.f64(job.finish);
  w.f64(job.total_bytes);
  w.i32(job.num_stages);
  w.boolean(job.failed);
}

SimResults::JobResult read_job_result(Reader& r) {
  SimResults::JobResult job;
  job.id = JobId{r.u64()};
  job.arrival = r.f64();
  job.finish = r.f64();
  job.total_bytes = r.f64();
  job.num_stages = r.i32();
  job.failed = r.boolean();
  return job;
}

void write_coflow_result(Writer& w, const SimResults::CoflowResult& coflow) {
  w.u64(coflow.id.value());
  w.u64(coflow.job.value());
  w.i32(coflow.stage);
  w.f64(coflow.release);
  w.f64(coflow.finish);
  w.f64(coflow.total_bytes);
  w.boolean(coflow.failed);
}

SimResults::CoflowResult read_coflow_result(Reader& r) {
  SimResults::CoflowResult coflow;
  coflow.id = CoflowId{r.u64()};
  coflow.job = JobId{r.u64()};
  coflow.stage = r.i32();
  coflow.release = r.f64();
  coflow.finish = r.f64();
  coflow.total_bytes = r.f64();
  coflow.failed = r.boolean();
  return coflow;
}

void write_snapshot_file(const std::string& path,
                         const std::string& payload) {
  write_file_atomic(path, /*binary=*/true, [&](std::ostream& out) {
    out.write(payload.data(),
              static_cast<std::streamsize>(payload.size()));
  });
}

std::string read_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw SnapshotError("cannot open snapshot file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof())
    throw SnapshotError("error reading snapshot file: " + path);
  return std::move(buf).str();
}

}  // namespace snapshot
}  // namespace gurita
