// Unit tests for src/coflow: coflow dimensions, job validation, stage
// assignment, topological ordering and the shape builders.
#include <gtest/gtest.h>

#include "coflow/coflow.h"
#include "coflow/job.h"
#include "coflow/shapes.h"

namespace gurita {
namespace {

CoflowSpec coflow_with_sizes(std::initializer_list<Bytes> sizes) {
  CoflowSpec c;
  int host = 0;
  for (Bytes s : sizes) {
    c.flows.push_back(FlowSpec{host, host + 1, s});
    host += 2;
  }
  return c;
}

// ------------------------------------------------------------- CoflowSpec

TEST(CoflowSpec, Dimensions) {
  const CoflowSpec c = coflow_with_sizes({10.0, 30.0, 20.0});
  EXPECT_EQ(c.width(), 3u);            // horizontal
  EXPECT_DOUBLE_EQ(c.max_flow_size(), 30.0);  // vertical
  EXPECT_DOUBLE_EQ(c.total_bytes(), 60.0);
}

TEST(CoflowSpec, EmptyCoflow) {
  const CoflowSpec c;
  EXPECT_EQ(c.width(), 0u);
  EXPECT_DOUBLE_EQ(c.max_flow_size(), 0.0);
  EXPECT_DOUBLE_EQ(c.total_bytes(), 0.0);
}

// ---------------------------------------------------------------- JobSpec

JobSpec two_stage_job() {
  JobSpec job;
  job.coflows.push_back(coflow_with_sizes({5.0}));
  job.coflows.push_back(coflow_with_sizes({7.0, 3.0}));
  job.deps = {{}, {0}};  // coflow 1 depends on coflow 0
  return job;
}

TEST(JobSpec, TotalBytes) {
  EXPECT_DOUBLE_EQ(two_stage_job().total_bytes(), 15.0);
}

TEST(JobValidate, AcceptsWellFormed) {
  EXPECT_NO_THROW(validate(two_stage_job(), 16));
}

TEST(JobValidate, RejectsEmptyJob) {
  JobSpec job;
  EXPECT_THROW(validate(job, 16), std::logic_error);
}

TEST(JobValidate, RejectsDepsSizeMismatch) {
  JobSpec job = two_stage_job();
  job.deps.pop_back();
  EXPECT_THROW(validate(job, 16), std::logic_error);
}

TEST(JobValidate, RejectsSelfDependency) {
  JobSpec job = two_stage_job();
  job.deps[0] = {0};
  EXPECT_THROW(validate(job, 16), std::logic_error);
}

TEST(JobValidate, RejectsOutOfRangeDependency) {
  JobSpec job = two_stage_job();
  job.deps[1] = {5};
  EXPECT_THROW(validate(job, 16), std::logic_error);
}

TEST(JobValidate, RejectsCycle) {
  JobSpec job;
  job.coflows.push_back(coflow_with_sizes({1.0}));
  job.coflows.push_back(coflow_with_sizes({1.0}));
  job.deps = {{1}, {0}};
  EXPECT_THROW(validate(job, 16), std::logic_error);
}

TEST(JobValidate, RejectsEmptyCoflow) {
  JobSpec job = two_stage_job();
  job.coflows[0].flows.clear();
  EXPECT_THROW(validate(job, 16), std::logic_error);
}

TEST(JobValidate, RejectsNonPositiveFlowSize) {
  JobSpec job = two_stage_job();
  job.coflows[0].flows[0].size = 0;
  EXPECT_THROW(validate(job, 16), std::logic_error);
}

TEST(JobValidate, RejectsHostOutOfRange) {
  JobSpec job = two_stage_job();
  job.coflows[0].flows[0].dst_host = 16;
  EXPECT_THROW(validate(job, 16), std::logic_error);
}

TEST(JobValidate, RejectsSelfFlow) {
  JobSpec job = two_stage_job();
  job.coflows[0].flows[0].dst_host = job.coflows[0].flows[0].src_host;
  EXPECT_THROW(validate(job, 16), std::logic_error);
}

TEST(JobValidate, RejectsNegativeArrival) {
  JobSpec job = two_stage_job();
  job.arrival_time = -1.0;
  EXPECT_THROW(validate(job, 16), std::logic_error);
}

// ----------------------------------------------------------------- Stages

TEST(Stages, ChainIsSequential) {
  JobSpec job;
  for (int i = 0; i < 4; ++i) job.coflows.push_back(coflow_with_sizes({1.0}));
  job.deps = shapes::chain(4);
  EXPECT_EQ(stages_of(job), (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(stage_count(job), 4);
}

TEST(Stages, DiamondTakesLongestPath) {
  // 0 -> {1, 2} -> 3, with an extra edge 0 -> 3. Stage of 3 is still 3.
  JobSpec job;
  for (int i = 0; i < 4; ++i) job.coflows.push_back(coflow_with_sizes({1.0}));
  job.deps = {{}, {0}, {0}, {0, 1, 2}};
  EXPECT_EQ(stages_of(job), (std::vector<int>{1, 2, 2, 3}));
}

TEST(Stages, IndependentCoflowsAllStageOne) {
  JobSpec job;
  for (int i = 0; i < 3; ++i) job.coflows.push_back(coflow_with_sizes({1.0}));
  job.deps = {{}, {}, {}};
  EXPECT_EQ(stages_of(job), (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(stage_count(job), 1);
}

// ---------------------------------------------------------- Topo ordering

TEST(TopologicalOrder, DependenciesComeFirst) {
  JobSpec job;
  for (int i = 0; i < 5; ++i) job.coflows.push_back(coflow_with_sizes({1.0}));
  job.deps = {{}, {0}, {0}, {1, 2}, {3}};
  const auto order = topological_order(job);
  std::vector<int> position(5);
  for (int i = 0; i < 5; ++i) position[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = i;
  for (int i = 0; i < 5; ++i)
    for (int d : job.deps[static_cast<std::size_t>(i)])
      EXPECT_LT(position[static_cast<std::size_t>(d)], position[static_cast<std::size_t>(i)]);
}

TEST(TopologicalOrder, DetectsCycle) {
  JobSpec job;
  for (int i = 0; i < 3; ++i) job.coflows.push_back(coflow_with_sizes({1.0}));
  job.deps = {{2}, {0}, {1}};
  EXPECT_THROW(topological_order(job), std::logic_error);
}

}  // namespace
}  // namespace gurita
