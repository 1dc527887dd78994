// Tests for Table-1 size categories, JCT collection and the improvement
// factor, plus the text table reporter.
#include <gtest/gtest.h>

#include <cstdint>

#include "metrics/category.h"
#include "metrics/collector.h"
#include "metrics/report.h"

namespace gurita {
namespace {

// ------------------------------------------------------------- categories

// gtest_discover_tests names each case after the object's raw bytes, so the
// struct must have no padding: uninitialised padding made the names vary
// with the build directory.
struct CategoryCase {
  Bytes size;
  std::int64_t expected;
};
static_assert(sizeof(CategoryCase) == sizeof(Bytes) + sizeof(std::int64_t));

class CategoryBoundaries : public ::testing::TestWithParam<CategoryCase> {};

TEST_P(CategoryBoundaries, MapsToTableOne) {
  EXPECT_EQ(category_of(GetParam().size), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    TableOne, CategoryBoundaries,
    ::testing::Values(CategoryCase{0, 0},                  // folds into I
                      CategoryCase{6 * kMB, 0},            // I lower bound
                      CategoryCase{80 * kMB, 0},           // inside I
                      CategoryCase{81 * kMB, 1},           // II
                      CategoryCase{800 * kMB, 1},          // inside II
                      CategoryCase{801 * kMB, 2},          // III
                      CategoryCase{8 * kGB, 3},            // IV
                      CategoryCase{9 * kGB, 3},            // inside IV
                      CategoryCase{10 * kGB, 4},           // V
                      CategoryCase{99 * kGB, 4},           // inside V
                      CategoryCase{100 * kGB, 5},          // VI
                      CategoryCase{1 * kTB, 6},            // VII
                      CategoryCase{50 * kTB, 6}));         // deep in VII

TEST(Category, Names) {
  EXPECT_EQ(category_name(0), "I");
  EXPECT_EQ(category_name(3), "IV");
  EXPECT_EQ(category_name(6), "VII");
  EXPECT_THROW(category_name(7), std::logic_error);
  EXPECT_THROW(category_name(-1), std::logic_error);
}

TEST(Category, RejectsNegativeSize) {
  EXPECT_THROW(category_of(-1.0), std::logic_error);
}

// -------------------------------------------------------------- collector

SimResults results_with_jobs(
    std::initializer_list<std::pair<Bytes, double>> size_jct) {
  SimResults r;
  std::uint64_t id = 0;
  for (const auto& [bytes, jct] : size_jct) {
    SimResults::JobResult j;
    j.id = JobId{id++};
    j.arrival = 0;
    j.finish = jct;
    j.total_bytes = bytes;
    r.jobs.push_back(j);
  }
  return r;
}

TEST(Collector, AveragesOverall) {
  JctCollector c;
  c.add(results_with_jobs({{10 * kMB, 2.0}, {10 * kMB, 4.0}}));
  EXPECT_DOUBLE_EQ(c.average_jct(), 3.0);
  EXPECT_EQ(c.total_jobs(), 2u);
}

TEST(Collector, SplitsByCategory) {
  JctCollector c;
  c.add(results_with_jobs(
      {{10 * kMB, 1.0}, {20 * kMB, 3.0}, {2 * kGB, 10.0}}));
  EXPECT_DOUBLE_EQ(c.average_jct(0), 2.0);
  EXPECT_DOUBLE_EQ(c.average_jct(2), 10.0);
  EXPECT_EQ(c.jobs(0), 2u);
  EXPECT_EQ(c.jobs(1), 0u);
  EXPECT_DOUBLE_EQ(c.average_jct(1), 0.0);
}

TEST(Collector, AccumulatesAcrossRuns) {
  JctCollector c;
  c.add(results_with_jobs({{10 * kMB, 2.0}}));
  c.add(results_with_jobs({{10 * kMB, 6.0}}));
  EXPECT_DOUBLE_EQ(c.average_jct(), 4.0);
}

TEST(Collector, P95) {
  JctCollector c;
  SimResults r;
  for (int i = 1; i <= 100; ++i) {
    SimResults::JobResult j;
    j.id = JobId{static_cast<std::uint64_t>(i)};
    j.finish = i;
    j.total_bytes = 10 * kMB;
    r.jobs.push_back(j);
  }
  c.add(r);
  EXPECT_DOUBLE_EQ(c.p95_jct(), 95.0);
}

TEST(Collector, CategoryOutOfRangeThrows) {
  JctCollector c;
  EXPECT_THROW(c.average_jct(7), std::logic_error);
  EXPECT_THROW(c.jobs(-1), std::logic_error);
}

// ------------------------------------------------------------ improvement

TEST(Improvement, PaperDefinition) {
  JctCollector gurita, other;
  gurita.add(results_with_jobs({{10 * kMB, 2.0}}));
  other.add(results_with_jobs({{10 * kMB, 4.0}}));
  // other is 2x slower: improvement = 2 (> 1 means Gurita faster).
  EXPECT_DOUBLE_EQ(improvement_factor(gurita, other), 2.0);
  EXPECT_DOUBLE_EQ(improvement_factor(other, gurita), 0.5);
}

TEST(Improvement, PerCategory) {
  JctCollector gurita, other;
  gurita.add(results_with_jobs({{10 * kMB, 1.0}, {2 * kGB, 10.0}}));
  other.add(results_with_jobs({{10 * kMB, 8.0}, {2 * kGB, 11.0}}));
  EXPECT_DOUBLE_EQ(improvement_factor(gurita, other, 0), 8.0);
  EXPECT_DOUBLE_EQ(improvement_factor(gurita, other, 2), 1.1);
}

TEST(Improvement, EmptyCategoryIsZero) {
  JctCollector gurita, other;
  gurita.add(results_with_jobs({{10 * kMB, 1.0}}));
  other.add(results_with_jobs({{10 * kMB, 2.0}}));
  EXPECT_DOUBLE_EQ(improvement_factor(gurita, other, 5), 0.0);
}

TEST(Improvement, EmptyCollectorsAreZero) {
  JctCollector a, b;
  EXPECT_DOUBLE_EQ(improvement_factor(a, b), 0.0);
}

// ------------------------------------------------------------- text table

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1.5"});
  t.add_row({"longer-name", "2"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
  // Four lines: header, rule, two rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(TextTable, RejectsMismatchedRow) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::logic_error);
}

TEST(TextTable, RejectsEmptyHeader) {
  EXPECT_THROW(TextTable({}), std::logic_error);
}

TEST(TextTable, NumFormatsThreeDecimals) {
  EXPECT_EQ(TextTable::num(1.23456), "1.235");
  EXPECT_EQ(TextTable::num(2.0), "2.000");
}

}  // namespace
}  // namespace gurita
