// Tests for job files: the JSONL feed (workload/feed.h) that gurita_sim's
// --save-trace / --load-trace archive and bench_service --feed streams.
// Round trips through a real file, structural validation, and the
// diagnostics a malformed file must produce. Each case keeps the name it
// had when job files were a line-oriented text format; the case now
// checks the same property of the JSONL form.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>

#include "common/atomic_file.h"
#include "fault/fault.h"
#include "workload/feed.h"
#include "workload/trace_gen.h"

namespace gurita {
namespace {

class TraceIoFixture : public ::testing::Test {
 protected:
  std::string path_;

  void SetUp() override {
    path_ = ::testing::TempDir() + "gurita_feed_test_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->line()) +
            ".jsonl";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void write_file(const std::string& contents) {
    std::ofstream out(path_);
    out << contents;
  }

  /// Saves `jobs` the way gurita_sim --save-trace does: ids 0..n-1,
  /// written atomically.
  void save(const std::vector<JobSpec>& jobs) {
    std::vector<FeedJob> feed(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) feed[i] = {i, jobs[i]};
    write_file_atomic(path_, /*binary=*/false,
                      [&](std::ostream& out) { write_feed(out, feed); });
  }
};

/// One job line (id 0, arrival 0) with the given `coflows` array text and
/// any `extra` members.
std::string job_line(const std::string& coflows,
                     const std::string& extra = "") {
  return "{\"id\":0,\"arrival\":0,\"coflows\":" + coflows + extra + "}\n";
}

TEST_F(TraceIoFixture, RoundTripPreservesEverything) {
  TraceConfig config;
  config.num_jobs = 25;
  config.num_hosts = 64;
  config.seed = 5;
  const std::vector<JobSpec> original = generate_trace(config);

  save(original);
  const std::vector<FeedJob> loaded = load_feed(path_, 64);

  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t j = 0; j < original.size(); ++j) {
    EXPECT_EQ(loaded[j].id, j);
    const JobSpec& got = loaded[j].spec;
    EXPECT_EQ(got.arrival_time, original[j].arrival_time);
    EXPECT_EQ(got.deadline, original[j].deadline);
    ASSERT_EQ(got.coflows.size(), original[j].coflows.size());
    EXPECT_EQ(got.deps, original[j].deps);
    for (std::size_t c = 0; c < original[j].coflows.size(); ++c) {
      const auto& oc = original[j].coflows[c];
      const auto& lc = got.coflows[c];
      ASSERT_EQ(lc.flows.size(), oc.flows.size());
      for (std::size_t f = 0; f < oc.flows.size(); ++f) {
        EXPECT_EQ(lc.flows[f].src_host, oc.flows[f].src_host);
        EXPECT_EQ(lc.flows[f].dst_host, oc.flows[f].dst_host);
        EXPECT_EQ(lc.flows[f].size, oc.flows[f].size);
      }
    }
  }
}

TEST_F(TraceIoFixture, LoadedTraceValidatesAgainstFabric) {
  TraceConfig config;
  config.num_jobs = 5;
  config.num_hosts = 16;
  save(generate_trace(config));
  for (const FeedJob& job : load_feed(path_, 16))
    EXPECT_NO_THROW(validate(job.spec, 16));
  // A fabric too small for the saved endpoints rejects the file.
  EXPECT_THROW((void)load_feed(path_, 2), ConfigError);
}

TEST_F(TraceIoFixture, HandWrittenMinimalTrace) {
  write_file(
      "# one two-stage job\n"
      "{\"id\": 4, \"arrival\": 0.5, \"coflows\": ["
      "{\"flows\": [{\"src\": 0, \"dst\": 1, \"bytes\": 1000}]},"
      "{\"flows\": [{\"src\": 1, \"dst\": 2, \"bytes\": 500}]}],"
      " \"deps\": [[], [0]]}\n");
  const auto jobs = load_feed(path_);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].id, 4u);
  EXPECT_DOUBLE_EQ(jobs[0].spec.arrival_time, 0.5);
  ASSERT_EQ(jobs[0].spec.coflows.size(), 2u);
  EXPECT_EQ(jobs[0].spec.deps[1], (std::vector<int>{0}));
  EXPECT_DOUBLE_EQ(jobs[0].spec.coflows[1].flows[0].size, 500.0);
}

// A file in the retired line-oriented text format (J/C/F records) is not
// silently half-read.
TEST_F(TraceIoFixture, LegacyTextTraceRejected) {
  write_file("J 0 1\nC 0\nF 0 1 10\n");
  try {
    (void)load_feed(path_);
    FAIL() << "expected throw";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos)
        << e.what();
  }
}

// A flow where a coflow belongs: the coflow has no "flows" array.
TEST_F(TraceIoFixture, FlowBeforeCoflowRejected) {
  write_file(job_line("[{\"src\":0,\"dst\":1,\"bytes\":10}]"));
  EXPECT_THROW((void)load_feed(path_), ConfigError);
}

// A coflow where a job belongs: the line has no id, arrival or coflows.
TEST_F(TraceIoFixture, CoflowBeforeJobRejected) {
  write_file("{\"flows\":[{\"src\":0,\"dst\":1,\"bytes\":10}]}\n");
  EXPECT_THROW((void)load_feed(path_), ConfigError);
}

// Two coflows but one dependency list.
TEST_F(TraceIoFixture, CoflowCountMismatchRejected) {
  write_file(job_line(
      "[{\"flows\":[{\"src\":0,\"dst\":1,\"bytes\":10}]},"
      "{\"flows\":[{\"src\":1,\"dst\":2,\"bytes\":10}]}]",
      ",\"deps\":[[]]"));
  EXPECT_THROW((void)load_feed(path_), ConfigError);
}

TEST_F(TraceIoFixture, CyclicDepsRejected) {
  write_file(job_line(
      "[{\"flows\":[{\"src\":0,\"dst\":1,\"bytes\":10}]},"
      "{\"flows\":[{\"src\":1,\"dst\":2,\"bytes\":10}]}]",
      ",\"deps\":[[1],[0]]"));
  EXPECT_THROW((void)load_feed(path_), ConfigError);
}

TEST_F(TraceIoFixture, NonPositiveFlowSizeRejected) {
  write_file(job_line("[{\"flows\":[{\"src\":0,\"dst\":1,\"bytes\":0}]}]"));
  EXPECT_THROW((void)load_feed(path_), ConfigError);
}

// A line that is no JSON record at all.
TEST_F(TraceIoFixture, UnknownTagRejected) {
  write_file("X what\n");
  EXPECT_THROW((void)load_feed(path_), ConfigError);
}

TEST_F(TraceIoFixture, MissingFileRejected) {
  EXPECT_THROW((void)load_feed("/nonexistent/path/to.jsonl"), ConfigError);
}

TEST_F(TraceIoFixture, TrailingTokensRejected) {
  write_file("{\"id\":0,\"arrival\":0,\"coflows\":"
             "[{\"flows\":[{\"src\":0,\"dst\":1,\"bytes\":10}]}]} surprise\n");
  EXPECT_THROW((void)load_feed(path_), ConfigError);
}

TEST_F(TraceIoFixture, TruncatedDepListRejected) {
  write_file("{\"id\":0,\"arrival\":0,\"coflows\":"
             "[{\"flows\":[{\"src\":0,\"dst\":1,\"bytes\":10}]},"
             "{\"flows\":[{\"src\":1,\"dst\":2,\"bytes\":10}]}],"
             "\"deps\":[[],[0\n");
  EXPECT_THROW((void)load_feed(path_), ConfigError);
}

TEST_F(TraceIoFixture, SelfFlowRejected) {
  write_file(job_line("[{\"flows\":[{\"src\":3,\"dst\":3,\"bytes\":10}]}]"));
  try {
    (void)load_feed(path_);
    FAIL() << "expected throw";
  } catch (const ConfigError& e) {
    // The problem and its line, without a source location.
    ASSERT_EQ(e.issues().size(), 1u);
    EXPECT_EQ(e.issues()[0].where + ": " + e.issues()[0].what,
              "line 1: flow src and dst are the same host");
    EXPECT_NE(std::string(e.what()).find(
                  "line 1: flow src and dst are the same host"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(TraceIoFixture, NegativeArrivalRejected) {
  write_file("{\"id\":0,\"arrival\":-0.25,\"coflows\":"
             "[{\"flows\":[{\"src\":0,\"dst\":1,\"bytes\":10}]}]}\n");
  EXPECT_THROW((void)load_feed(path_), ConfigError);
}

TEST_F(TraceIoFixture, EmptyCoflowRejected) {
  write_file(job_line("[{\"flows\":[]},"
                      "{\"flows\":[{\"src\":1,\"dst\":2,\"bytes\":10}]}]",
                      ",\"deps\":[[],[0]]"));
  EXPECT_THROW((void)load_feed(path_), ConfigError);
}

TEST_F(TraceIoFixture, SaveIsAtomicAndCorruptionIsDetected) {
  TraceConfig config;
  config.num_jobs = 10;
  config.num_hosts = 32;
  save(generate_trace(config));
  // Atomic save leaves no temp file behind.
  EXPECT_FALSE(std::ifstream(path_ + ".tmp").good());
  std::remove((path_ + ".tmp").c_str());

  // Simulated mid-write crash: cut the file inside its last job line (a
  // cut at a line boundary would leave a shorter but valid workload). The
  // loader must reject it, never return a partial workload silently.
  std::string contents;
  {
    std::ifstream in(path_);
    contents.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  const std::size_t last_line = contents.rfind("\n{");
  ASSERT_NE(last_line, std::string::npos);
  write_file(contents.substr(0, last_line + 20));
  EXPECT_THROW((void)load_feed(path_), ConfigError);
}

TEST_F(TraceIoFixture, ErrorsCarryLineNumbers) {
  write_file(job_line("[{\"flows\":[{\"src\":0,\"dst\":1,\"bytes\":10}]}]") +
             "# a comment\n\n"
             "{\"id\":1,\"arrival\":1,\"coflows\":[]}\n"
             "X bogus\n");
  try {
    (void)load_feed(path_);
    FAIL() << "expected throw";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find("line 1:"), std::string::npos) << what;
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    EXPECT_NE(what.find("line 5"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace gurita
