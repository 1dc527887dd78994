// Unit tests for SPQ waiting-time modeling and WRR weight derivation, plus
// an end-to-end demonstration that WRR emulation prevents the starvation
// pure SPQ causes (§IV.B "Starvation Mitigation").
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/ava.h"
#include "core/starvation.h"
#include "flowsim/simulator.h"
#include "topology/fattree.h"

namespace gurita {
namespace {

// ------------------------------------------------------ spq_waiting_times

TEST(SpqWait, UniformLoadGrowsWithQueueIndex) {
  const auto w = spq_waiting_times({0.2, 0.2, 0.2, 0.2});
  ASSERT_EQ(w.size(), 4u);
  EXPECT_DOUBLE_EQ(w[0], 1.0);  // normalized
  for (std::size_t i = 1; i < w.size(); ++i) EXPECT_GT(w[i], w[i - 1]);
}

TEST(SpqWait, KnownTwoQueueValues) {
  // rho = {0.5, 0.25}: W0 ∝ 1/(1·0.5), W1 ∝ 1/(0.5·0.25).
  const auto w = spq_waiting_times({0.5, 0.25});
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  EXPECT_NEAR(w[1], (1.0 / (0.5 * 0.25)) / (1.0 / 0.5), 1e-12);  // = 4
}

TEST(SpqWait, ZeroLoadIsUnitWait) {
  const auto w = spq_waiting_times({0.0, 0.0});
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  EXPECT_DOUBLE_EQ(w[1], 1.0);
}

TEST(SpqWait, RejectsUnstableLoad) {
  EXPECT_THROW(spq_waiting_times({0.6, 0.5}), std::logic_error);
  EXPECT_THROW(spq_waiting_times({1.0}), std::logic_error);
}

TEST(SpqWait, RejectsNegativeLoadOrEmpty) {
  EXPECT_THROW(spq_waiting_times({-0.1}), std::logic_error);
  EXPECT_THROW(spq_waiting_times({}), std::logic_error);
}

// ------------------------------------------------------------ wrr_weights

TEST(WrrWeights, SumToOne) {
  const auto w = wrr_weights({1.0, 2.0, 8.0});
  EXPECT_NEAR(std::accumulate(w.begin(), w.end(), 0.0), 1.0, 1e-12);
}

TEST(WrrWeights, InverseOfWaitingTime) {
  const auto w = wrr_weights({1.0, 4.0});
  // 1/W: {1, 0.25} normalized -> {0.8, 0.2}.
  EXPECT_NEAR(w[0], 0.8, 1e-12);
  EXPECT_NEAR(w[1], 0.2, 1e-12);
}

TEST(WrrWeights, PreservesPriorityOrdering) {
  const auto wait = spq_waiting_times({0.3, 0.3, 0.3});
  const auto w = wrr_weights(wait);
  EXPECT_GT(w[0], w[1]);
  EXPECT_GT(w[1], w[2]);
  EXPECT_GT(w[2], 0.0);  // but nobody starves
}

TEST(WrrWeights, RejectsNonPositiveWait) {
  EXPECT_THROW(wrr_weights({1.0, 0.0}), std::logic_error);
  EXPECT_THROW(wrr_weights({}), std::logic_error);
}

// -------------------------------------------------- wrr_weights_from_demand

TEST(WrrFromDemand, ZeroDemandGivesEqualWeights) {
  const auto w = wrr_weights_from_demand({0.0, 0.0, 0.0});
  for (double x : w) EXPECT_NEAR(x, 1.0 / 3.0, 1e-12);
}

TEST(WrrFromDemand, ZeroDemandQueuesAmongBusyOnesKeepFiniteWeights) {
  // The Gurita WRR split always sees zero-demand queues (freshly released
  // traffic concentrates in queue 0): those queues get zero load but must
  // still receive a finite positive weight, the ladder must stay
  // non-increasing, and the min-queue-ratio floor must hold.
  const double ratio = 16.0;
  const auto w = wrr_weights_from_demand({2.0, 0.0, 1.0, 0.0}, 0.97, ratio);
  ASSERT_EQ(w.size(), 4u);
  double sum = 0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_TRUE(std::isfinite(w[i]));
    EXPECT_GT(w[i], 0.0);
    if (i > 0) {
      EXPECT_LE(w[i], w[i - 1] / ratio + 1e-12);
    }
    sum += w[i];
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(WrrFromDemand, HeavierLowQueueStillDominates) {
  const auto w = wrr_weights_from_demand({10.0, 10.0, 10.0, 10.0});
  EXPECT_GT(w[0], w[3]);
  EXPECT_GT(w[3], 0.0);
}

TEST(WrrFromDemand, RejectsBadUtilization) {
  EXPECT_THROW(wrr_weights_from_demand({1.0}, 0.0), std::logic_error);
  EXPECT_THROW(wrr_weights_from_demand({1.0}, 1.0), std::logic_error);
}

TEST(WrrFromDemand, RejectsNegativeDemand) {
  EXPECT_THROW(wrr_weights_from_demand({-1.0}), std::logic_error);
}

// --------------------------------------------------------------- AVA here
// (small enough to share the binary)

TEST(EnforceQueues, MapsQueuesToSpqTiersOrSplitWrrWeights) {
  const auto table = [] {
    return std::vector<QueuedCoflow>{{CoflowId{7}, 0, 1},
                                      {CoflowId{3}, 1, 2},
                                      {CoflowId{5}, 1, 2}};
  };
  std::vector<QueuedCoflow> spq = table();
  EXPECT_TRUE(enforce_queues(spq, 3, false).empty());
  for (const QueuedCoflow& c : spq) {
    EXPECT_EQ(c.tier, c.queue);
    EXPECT_EQ(c.weight, 1.0);
  }
  // WRR: one tier; queue q's weight W_q splits over its n_q active flows
  // (1 in queue 0, 4 in queue 1); queue 2 is empty but keeps a weight.
  std::vector<QueuedCoflow> wrr = table();
  const std::vector<double> w = enforce_queues(wrr, 3, true);
  EXPECT_EQ(w, wrr_weights_from_demand({1.0, 4.0, 0.0}, kWrrTotalUtilization,
                                      kWrrMinQueueRatio));
  EXPECT_EQ(wrr[0].tier, 0);
  EXPECT_EQ(wrr[0].weight, w[0]);
  EXPECT_EQ(wrr[1].tier, 0);
  EXPECT_EQ(wrr[1].weight, w[1] / 4.0);
  EXPECT_EQ(wrr[2].weight, w[1] / 4.0);
  // A row without active flows has no WRR share to take.
  std::vector<QueuedCoflow> idle{{CoflowId{1}, 0, 0}};
  EXPECT_THROW((void)enforce_queues(idle, 3, true),
               std::logic_error);
}

TEST(Ava, NoObservationsIsConservative) {
  const AvaEstimator ava;
  EXPECT_FALSE(ava.likely_critical(1e12));
  EXPECT_DOUBLE_EQ(ava.mean(), 0.0);
}

TEST(Ava, MeanTracksObservations) {
  AvaEstimator ava;
  ava.observe(10.0);
  ava.observe(30.0);
  EXPECT_DOUBLE_EQ(ava.mean(), 20.0);
  EXPECT_EQ(ava.observations(), 2u);
}

TEST(Ava, AboveMeanIsLikelyCritical) {
  AvaEstimator ava;
  ava.observe(10.0);
  ava.observe(30.0);
  EXPECT_TRUE(ava.likely_critical(25.0));
  EXPECT_TRUE(ava.likely_critical(20.0));  // at the mean counts
  EXPECT_FALSE(ava.likely_critical(15.0));
}

TEST(Ava, RejectsNegativeObservation) {
  AvaEstimator ava;
  EXPECT_THROW(ava.observe(-1.0), std::logic_error);
}

// ------------------------------------------ end-to-end starvation behavior

/// Scheduler with two fixed tiers by job id parity; pure SPQ or WRR.
class TwoTierScheduler final : public Scheduler {
 public:
  explicit TwoTierScheduler(bool wrr) : wrr_(wrr) {}
  std::string name() const override { return "two_tier"; }
  void assign(Time now, const std::vector<SimFlow*>& active) override {
    (void)now;
    std::vector<double> demand(2, 0.0);
    for (const SimFlow* f : active) demand[f->job.value() % 2] += 1.0;
    const auto weights = wrr_weights_from_demand(demand);
    for (const SimFlow* f : active) {
      const std::size_t q = f->job.value() % 2;
      const CoflowId cid = state().job(f->job).coflows[f->coflow_index];
      if (wrr_)
        set_priority(cid, 0, std::max(weights[q] / demand[q], 1e-9));
      else
        set_priority(cid, static_cast<Tier>(q), 1.0);
    }
  }

 private:
  bool wrr_;
};

TEST(StarvationEndToEnd, PureSpqStallsLowPriorityBehindBack11og) {
  const FatTree fabric(FatTree::Config{4, 100.0});
  // Job 1 (odd id -> low priority) contends with a steady stream of
  // high-priority jobs on the same links.
  auto build = [&](Scheduler& sched) {
    Simulator sim(fabric, sched);
    for (int i = 0; i < 6; ++i) {
      JobSpec high;
      high.arrival_time = i * 1.0;
      CoflowSpec c;
      c.flows.push_back(FlowSpec{0, 1, 100.0});
      high.coflows.push_back(c);
      high.deps = {{}};
      sim.submit(high);  // even ids 0,2,... wait: ids increment every submit
      JobSpec low;
      low.arrival_time = i * 1.0;
      CoflowSpec d;
      d.flows.push_back(FlowSpec{0, 1, 50.0});
      low.coflows.push_back(d);
      low.deps = {{}};
      sim.submit(low);
    }
    return sim.run();
  };

  TwoTierScheduler spq(false), wrr(true);
  const SimResults r_spq = build(spq);
  const SimResults r_wrr = build(wrr);

  // Low-priority job JCTs: under SPQ they wait for the entire high stream;
  // under WRR they progress (strictly earlier average finish).
  double spq_low = 0, wrr_low = 0;
  for (std::size_t i = 1; i < r_spq.jobs.size(); i += 2) {
    spq_low += r_spq.jobs[i].jct();
    wrr_low += r_wrr.jobs[i].jct();
  }
  EXPECT_LT(wrr_low, spq_low);
  // And under WRR the very first low job makes progress while the
  // high-priority stream is still arriving, finishing strictly earlier
  // than it does under pure SPQ.
  EXPECT_LT(r_wrr.jobs[1].finish, r_spq.jobs[1].finish);
}

}  // namespace
}  // namespace gurita
