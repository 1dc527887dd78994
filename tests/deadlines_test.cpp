// Tests for deadline support: JobSpec validation and the job-file
// round-trip. Deadlines are data the JSONL feed and snapshots carry; no
// scheduler reads them.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "coflow/job.h"
#include "workload/feed.h"

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
  std::vector<FeedJob> jobs = {{0, one_flow_job(100.0, 0, 1, 1.0)},
                               {1, one_flow_job(50.0, 1, 2, 1.0)}};
  jobs[0].spec.deadline = 7.5;  // the second job has none
  std::ostringstream out;
  write_feed(out, jobs);
  std::istringstream in(out.str());
  const std::vector<FeedJob> loaded = parse_feed(in, "deadlines", 16);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded[0].spec.deadline, 7.5);
  EXPECT_FALSE(loaded[1].spec.has_deadline());
}

}  // namespace
}  // namespace gurita
