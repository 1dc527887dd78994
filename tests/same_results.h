// The one comparator for tests asserting that two runs are the same run:
// every job and coflow result, the makespan, every counter and the trace,
// doubles by their IEEE-754 bit pattern (so -0.0 differs from 0.0 and a NaN
// matches only itself). Used by the checkpoint/restore tests and by the
// differential tests against the reference engines.
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

/// Every flow's start, finish and size, read from the two runs' engine
/// state after the run.
inline void expect_same_flows(const SimState& a, const SimState& b) {
  ASSERT_EQ(a.flow_count(), b.flow_count());
  for (std::size_t i = 0; i < a.flow_count(); ++i) {
    const SimFlow& x = a.flow(FlowId{i});
    const SimFlow& y = b.flow(FlowId{i});
    EXPECT_EQ(bits(x.start_time), bits(y.start_time)) << "flow " << i;
    EXPECT_EQ(bits(x.finish_time), bits(y.finish_time)) << "flow " << i;
    EXPECT_EQ(bits(x.size), bits(y.size)) << "flow " << i;
  }
}

}  // namespace gurita
