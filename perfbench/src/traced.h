// Tracing from outside the program: an in-memory span log and forwarding
// Scheduler / Fabric wrappers that turn the engine's calls into the policy
// (assign, on_tick) and the topology (route) into spans. The wrappers
// forward every virtual, so a wrapped run simulates exactly what an
// unwrapped one does; the benchmark checks that by fingerprint.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "flowsim/scheduler.h"
#include "topology/fabric.h"

namespace perfbench {

enum class SpanName : std::uint8_t { kRun, kAssign, kTick, kRoute };

[[nodiscard]] const char* to_string(SpanName name);

struct Span {
  SpanName name = SpanName::kRun;
  std::uint32_t run = 0;      ///< shared by the spans of one simulation run
  std::int32_t parent = -1;   ///< index of the enclosing span, -1 for none
  std::int64_t start_ns = 0;  ///< since the log's epoch
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  /// Opens a span and returns its index for close().
  std::int32_t open(SpanName name, std::uint32_t run, std::int32_t parent) {
    spans_.push_back(Span{name, run, parent, now_ns(), 0});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes one CSV line per span: run,name,parent,start_ns,end_ns.
  void write_csv(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// What the wrappers of one simulation run share: where spans go, the run
/// id, the enclosing run span, and the tick counts.
struct RunContext {
  SpanLog* log = nullptr;
  std::uint32_t run = 0;
  std::int32_t parent = -1;
  std::uint64_t ticks = 0;
  std::uint64_t tick_changes = 0;  ///< ticks that returned true
};

class TracedScheduler final : public gurita::Scheduler {
 public:
  TracedScheduler(gurita::Scheduler& inner, RunContext& ctx)
      : inner_(inner), ctx_(ctx) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void attach(const gurita::SimState& state) override {
    Scheduler::attach(state);
    inner_.attach(state);
  }
  void on_job_arrival(const gurita::SimJob& job, gurita::Time now) override {
    inner_.on_job_arrival(job, now);
  }
  void on_coflow_release(const gurita::SimCoflow& coflow,
                         gurita::Time now) override {
    inner_.on_coflow_release(coflow, now);
  }
  void on_flow_finish(const gurita::SimFlow& flow, gurita::Time now) override {
    inner_.on_flow_finish(flow, now);
  }
  void on_coflow_finish(const gurita::SimCoflow& coflow,
                        gurita::Time now) override {
    inner_.on_coflow_finish(coflow, now);
  }
  void on_job_finish(const gurita::SimJob& job, gurita::Time now) override {
    inner_.on_job_finish(job, now);
  }
  void on_fault(const gurita::FaultEvent& event, gurita::Time now) override {
    inner_.on_fault(event, now);
  }
  void on_recover(const gurita::FaultEvent& event, gurita::Time now) override {
    inner_.on_recover(event, now);
  }
  void on_job_fail(const gurita::SimJob& job, gurita::Time now) override {
    inner_.on_job_fail(job, now);
  }
  void on_compact(const gurita::CompactionRemap& remap) override {
    inner_.on_compact(remap);
  }
  [[nodiscard]] gurita::Time tick_interval() const override {
    return inner_.tick_interval();
  }
  bool on_tick(gurita::Time now) override;
  void assign(gurita::Time now,
              const std::vector<gurita::SimFlow*>& active) override;
  void save_state(gurita::snapshot::Writer& w) const override {
    inner_.save_state(w);
  }
  void load_state(gurita::snapshot::Reader& r) override {
    inner_.load_state(r);
  }
  void set_trace_recorder(gurita::obs::TraceRecorder* recorder) override {
    Scheduler::set_trace_recorder(recorder);
    inner_.set_trace_recorder(recorder);
  }

 private:
  gurita::Scheduler& inner_;
  RunContext& ctx_;
};

class TracedFabric final : public gurita::Fabric {
 public:
  TracedFabric(const gurita::Fabric& inner, RunContext& ctx)
      : inner_(inner), ctx_(&ctx) {}

  [[nodiscard]] const gurita::Topology& topology() const override {
    return inner_.topology();
  }
  [[nodiscard]] int num_hosts() const override { return inner_.num_hosts(); }
  [[nodiscard]] std::vector<gurita::LinkId> route(gurita::FlowId flow,
                                                  int src_host,
                                                  int dst_host) const override;

 private:
  const gurita::Fabric& inner_;
  RunContext* ctx_;  ///< route() is const; the spans it records are not
};

}  // namespace perfbench
