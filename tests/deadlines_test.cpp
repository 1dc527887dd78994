// Tests for deadline support: JobSpec validation and the trace round-trip.
// Deadlines are data the trace format, the feed and snapshots carry; no
// scheduler reads them.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>

#include "coflow/job.h"
#include "workload/trace_io.h"

namespace gurita {
namespace {

JobSpec one_flow_job(Bytes size, int src, int dst, Time arrival = 0) {
  JobSpec job;
  job.arrival_time = arrival;
  CoflowSpec c;
  c.flows.push_back(FlowSpec{src, dst, size});
  job.coflows.push_back(c);
  job.deps = {{}};
  return job;
}

TEST(Deadlines, ValidationRejectsDeadlineBeforeArrival) {
  JobSpec job = one_flow_job(100.0, 0, 1, 5.0);
  job.deadline = 4.0;
  EXPECT_THROW(validate(job, 16), std::logic_error);
  job.deadline = 6.0;
  EXPECT_NO_THROW(validate(job, 16));
  job.deadline = 0.0;  // "no deadline" is always fine
  EXPECT_NO_THROW(validate(job, 16));
}

TEST(Deadlines, TraceRoundTripKeepsDeadline) {
  const std::string path = ::testing::TempDir() + "deadline_roundtrip.trace";
  std::vector<JobSpec> jobs = {one_flow_job(100.0, 0, 1, 1.0)};
  jobs[0].deadline = 7.5;
  jobs.push_back(one_flow_job(50.0, 1, 2));  // no deadline
  save_trace(path, jobs);
  const auto loaded = load_trace(path);
  std::remove(path.c_str());
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded[0].deadline, 7.5);
  EXPECT_FALSE(loaded[1].has_deadline());
}

}  // namespace
}  // namespace gurita
