// The one comparator for tests asserting that two runs are the same run:
// every job and coflow result, the makespan, every counter and the trace,
// doubles by their IEEE-754 bit pattern (so -0.0 differs from 0.0 and a NaN
// matches only itself); and for two engine states, every field. Used by the
// checkpoint/restore tests and by the differential tests against the
// reference engines.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>

#include "flowsim/simulator.h"

namespace gurita {

inline std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// `flow_touches` false leaves that counter out: it counts the calendar
/// engine's bookkeeping, which the reference oracle has none of.
inline void expect_same_results(const SimResults& a, const SimResults& b,
                                bool flow_touches = true) {
  EXPECT_EQ(bits(a.makespan), bits(b.makespan));
  EXPECT_EQ(a.rate_recomputations, b.rate_recomputations);
  EXPECT_EQ(a.events, b.events);
  if (flow_touches) {
    EXPECT_EQ(a.flow_touches, b.flow_touches);
  }
  EXPECT_EQ(a.flow_aborts, b.flow_aborts);
  EXPECT_EQ(a.flow_retries, b.flow_retries);
  EXPECT_EQ(a.failed_jobs, b.failed_jobs);
  EXPECT_EQ(bits(a.bytes_lost), bits(b.bytes_lost));
  EXPECT_EQ(bits(a.bytes_retransmitted), bits(b.bytes_retransmitted));
  EXPECT_EQ(bits(a.total_recovery_latency), bits(b.total_recovery_latency));

  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const SimResults::JobResult& x = a.jobs[i];
    const SimResults::JobResult& y = b.jobs[i];
    EXPECT_EQ(x.id, y.id) << "job " << i;
    EXPECT_EQ(bits(x.arrival), bits(y.arrival)) << "job " << i;
    EXPECT_EQ(bits(x.finish), bits(y.finish)) << "job " << i;
    EXPECT_EQ(bits(x.total_bytes), bits(y.total_bytes)) << "job " << i;
    EXPECT_EQ(x.num_stages, y.num_stages) << "job " << i;
    EXPECT_EQ(x.failed, y.failed) << "job " << i;
  }

  ASSERT_EQ(a.coflows.size(), b.coflows.size());
  for (std::size_t i = 0; i < a.coflows.size(); ++i) {
    const SimResults::CoflowResult& x = a.coflows[i];
    const SimResults::CoflowResult& y = b.coflows[i];
    EXPECT_EQ(x.id, y.id) << "coflow " << i;
    EXPECT_EQ(x.job, y.job) << "coflow " << i;
    EXPECT_EQ(x.stage, y.stage) << "coflow " << i;
    EXPECT_EQ(bits(x.release), bits(y.release)) << "coflow " << i;
    EXPECT_EQ(bits(x.finish), bits(y.finish)) << "coflow " << i;
    EXPECT_EQ(bits(x.total_bytes), bits(y.total_bytes)) << "coflow " << i;
    EXPECT_EQ(x.failed, y.failed) << "coflow " << i;
  }

  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    const obs::TraceRecord& x = a.trace[i];
    const obs::TraceRecord& y = b.trace[i];
    EXPECT_TRUE(bits(x.time) == bits(y.time) && x.job == y.job &&
                x.coflow == y.coflow && x.flow == y.flow &&
                bits(x.v0) == bits(y.v0) && bits(x.v1) == bits(y.v1) &&
                bits(x.v2) == bits(y.v2) && bits(x.v3) == bits(y.v3) &&
                bits(x.v4) == bits(y.v4) && bits(x.v5) == bits(y.v5) &&
                x.i0 == y.i0 && x.i1 == y.i1 && x.i2 == y.i2 &&
                x.kind == y.kind)
        << "trace record " << i;
  }
}

/// Which priorities expect_same_state compares. A snapshot carries none
/// (the next assign() rewrites every coflow with a transmitting flow), so
/// a freshly restored state is compared with kNone, and a restored run
/// that has since assigned with kLive: the unfinished coflows of running
/// jobs that have open connections, and their transmitting flows.
enum class Priorities { kAll, kLive, kNone };

/// Every field of every flow, coflow and job of two engine states, the
/// per-coflow aggregates through the SimState getters (bytes sent, ℓ̈_max
/// and open connections at now()) and the clock, doubles by bit pattern.
/// Flow lists and counters included, so a restore that derives them is
/// held to the values the engine maintained.
inline void expect_same_state(const SimState& a, const SimState& b,
                              Priorities priorities = Priorities::kAll) {
  EXPECT_EQ(bits(a.now()), bits(b.now()));
  const auto live = [&](const SimCoflow& c) {
    return priorities == Priorities::kAll ||
           (priorities == Priorities::kLive && !c.finished() &&
            !a.job(c.job).failed && a.coflow_open_connections(c.id) > 0);
  };

  ASSERT_EQ(a.flow_count(), b.flow_count());
  for (std::size_t i = 0; i < a.flow_count(); ++i) {
    const SimFlow& x = a.flow(FlowId{i});
    const SimFlow& y = b.flow(FlowId{i});
    EXPECT_TRUE(x.id == y.id && x.job == y.job &&
                x.coflow_index == y.coflow_index &&
                x.src_host == y.src_host && x.dst_host == y.dst_host &&
                bits(x.size) == bits(y.size) &&
                bits(x.remaining) == bits(y.remaining) &&
                bits(x.finish_time) == bits(y.finish_time) &&
                x.path == y.path && bits(x.rate) == bits(y.rate) &&
                bits(x.last_touched) == bits(y.last_touched) &&
                x.attempts == y.attempts &&
                bits(x.lost_bytes) == bits(y.lost_bytes) &&
                bits(x.abort_time) == bits(y.abort_time) &&
                x.cancelled == y.cancelled)
        << "flow " << i;
    const SimCoflow& owner =
        a.coflow(a.job(x.job).coflows[static_cast<std::size_t>(
            x.coflow_index)]);
    const bool transmitting = !x.finished() && !x.cancelled && x.abort_time < 0;
    if (priorities == Priorities::kAll || (live(owner) && transmitting)) {
      EXPECT_TRUE(x.tier == y.tier && bits(x.weight) == bits(y.weight))
          << "flow " << i << " priority";
    }
  }

  ASSERT_EQ(a.coflow_count(), b.coflow_count());
  for (std::size_t i = 0; i < a.coflow_count(); ++i) {
    const CoflowId id{i};
    const SimCoflow& x = a.coflow(id);
    const SimCoflow& y = b.coflow(id);
    EXPECT_TRUE(x.id == y.id && x.job == y.job && x.index == y.index &&
                x.stage == y.stage && x.flows == y.flows &&
                x.flows_remaining == y.flows_remaining &&
                bits(x.release_time) == bits(y.release_time) &&
                bits(x.finish_time) == bits(y.finish_time))
        << "coflow " << i;
    if (live(x)) {
      EXPECT_TRUE(x.tier == y.tier && bits(x.weight) == bits(y.weight))
          << "coflow " << i << " priority";
    }
    EXPECT_EQ(bits(a.coflow_bytes_sent(id)), bits(b.coflow_bytes_sent(id)))
        << "coflow " << i;
    EXPECT_EQ(bits(a.coflow_ell_max(id)), bits(b.coflow_ell_max(id)))
        << "coflow " << i;
    EXPECT_EQ(a.coflow_open_connections(id), b.coflow_open_connections(id))
        << "coflow " << i;
  }

  ASSERT_EQ(a.job_count(), b.job_count());
  for (std::size_t i = 0; i < a.job_count(); ++i) {
    const SimJob& x = a.job(JobId{i});
    const SimJob& y = b.job(JobId{i});
    EXPECT_TRUE(x.id == y.id && x.coflows == y.coflows &&
                x.stage_of == y.stage_of && x.num_stages == y.num_stages &&
                bits(x.arrival_time) == bits(y.arrival_time) &&
                bits(x.finish_time) == bits(y.finish_time) &&
                bits(x.total_bytes) == bits(y.total_bytes) &&
                x.failed == y.failed &&
                x.completed_stages == y.completed_stages)
        << "job " << i;
  }
}

}  // namespace gurita
