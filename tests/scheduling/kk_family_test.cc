// RCKK (Algorithm 2), forward KK and CKK.
#include <gtest/gtest.h>

#include <set>

#include "nfv/scheduling/algorithm.h"
#include "nfv/scheduling/metrics.h"

namespace nfv::sched {
namespace {

SchedulingProblem problem_with(std::vector<double> rates, std::uint32_t m,
                               double mu = 1000.0, double p = 1.0) {
  SchedulingProblem out;
  out.arrival_rates = std::move(rates);
  out.instance_count = m;
  out.service_rate = mu;
  out.delivery_prob = p;
  return out;
}

TEST(Rckk, TwoWayClassicDifferencing) {
  // {4,5,6,7,8} is the classic instance where 2-way KK differencing lands
  // at difference 2 (16/14) although a perfect split 15/15 exists.
  Rng rng(1);
  const auto p = problem_with({8, 7, 6, 5, 4}, 2);
  const Schedule s = RckkScheduling{}.schedule(p, rng);
  const ScheduleMetrics m = evaluate(p, s);
  EXPECT_DOUBLE_EQ(m.max_load, 16.0);
  EXPECT_DOUBLE_EQ(m.imbalance, 2.0);
}

TEST(Ckk, RecoversPerfectSplitWhereKkCannot) {
  // Same instance: complete search must reach the 15/15 optimum.
  Rng rng(1);
  const auto p = problem_with({8, 7, 6, 5, 4}, 2);
  const ScheduleMetrics m = evaluate(p, CkkScheduling{}.schedule(p, rng));
  EXPECT_DOUBLE_EQ(m.imbalance, 0.0);
}

TEST(Rckk, BeatsLptOnKkSignatureInstance) {
  // {4,5,6,7,8} two-way: LPT gives 17/13 (imbalance 4), KK gives 15/15.
  Rng rng(2);
  const auto p = problem_with({8, 7, 6, 5, 4}, 2);
  const ScheduleMetrics kk = evaluate(p, RckkScheduling{}.schedule(p, rng));
  const ScheduleMetrics lpt = evaluate(p, LptScheduling{}.schedule(p, rng));
  EXPECT_LT(kk.imbalance, lpt.imbalance);
  EXPECT_LT(kk.avg_response, lpt.avg_response);
}

TEST(Rckk, EveryRequestAssignedExactlyOnce) {
  // Eq. 5: Σ_k z_{r,k} = 1 — the assignment covers all requests.
  Rng rng(3);
  std::vector<double> rates;
  for (int i = 0; i < 50; ++i) rates.push_back(rng.uniform(1.0, 100.0));
  const auto p = problem_with(rates, 5);
  const Schedule s = RckkScheduling{}.schedule(p, rng);
  ASSERT_EQ(s.instance_of.size(), 50u);
  for (const auto k : s.instance_of) EXPECT_LT(k, 5u);
}

TEST(Rckk, LoadConservation) {
  Rng rng(4);
  std::vector<double> rates;
  double total = 0.0;
  for (int i = 0; i < 30; ++i) {
    rates.push_back(rng.uniform(1.0, 100.0));
    total += rates.back();
  }
  const auto p = problem_with(rates, 4);
  const ScheduleMetrics m = evaluate(p, RckkScheduling{}.schedule(p, rng));
  double sum = 0.0;
  for (const double l : m.instance_load) sum += l;
  EXPECT_NEAR(sum, total, 1e-9);
}

TEST(Rckk, SingleInstanceShortCircuit) {
  Rng rng(5);
  const auto p = problem_with({5, 6, 7}, 1);
  const Schedule s = RckkScheduling{}.schedule(p, rng);
  for (const auto k : s.instance_of) EXPECT_EQ(k, 0u);
}

TEST(Rckk, FewerRequestsThanInstances) {
  Rng rng(6);
  const auto p = problem_with({9, 3}, 4);
  const Schedule s = RckkScheduling{}.schedule(p, rng);
  // The two requests must land on different instances.
  EXPECT_NE(s.instance_of[0], s.instance_of[1]);
}

TEST(Rckk, WorkIsCombineCount) {
  Rng rng(7);
  const auto p = problem_with({1, 2, 3, 4, 5, 6}, 3);
  const Schedule s = RckkScheduling{}.schedule(p, rng);
  EXPECT_EQ(s.work, 5u);  // n-1 combines
}

TEST(Rckk, ThreeWayKnownInstance) {
  // {2,2,2,3,3} 3-way: perfect partition {3,3},{2,2,2} impossible for 3
  // subsets of sum 4: {3,?},... total=12, target 4: {3,1? no}. Subsets:
  // {2,2},{2,3}? sums 4,5,3 -> spread 2. Best is max 5? Actually
  // {3,2}=5,{3,2}=5,{2}=2 spread 3; or {3}=3,{3}=3,{2,2,2}=6 spread 3;
  // or {3,2}=5,{3}=3,{2,2}=4 spread 2. RCKK should reach max<=5.
  Rng rng(8);
  const auto p = problem_with({2, 2, 2, 3, 3}, 3);
  const ScheduleMetrics m = evaluate(p, RckkScheduling{}.schedule(p, rng));
  EXPECT_LE(m.max_load, 5.0);
}

TEST(KkForward, ProducesValidButUsuallyWorseBalance) {
  // Forward combination stacks large values together; reverse (RCKK) must
  // be at least as good in aggregate.
  Rng rng(9);
  double rckk_total = 0.0;
  double fwd_total = 0.0;
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> rates;
    for (int i = 0; i < 24; ++i) rates.push_back(rng.uniform(1.0, 100.0));
    const auto p = problem_with(rates, 4);
    rckk_total += evaluate(p, RckkScheduling{}.schedule(p, rng)).imbalance;
    fwd_total += evaluate(p, KkForwardScheduling{}.schedule(p, rng)).imbalance;
  }
  EXPECT_LT(rckk_total, fwd_total);
}

TEST(Ckk, FirstDescentEqualsRckkOrBetter) {
  Rng rng(10);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> rates;
    for (int i = 0; i < 12; ++i) rates.push_back(rng.uniform(1.0, 50.0));
    const auto p = problem_with(rates, 3);
    const ScheduleMetrics rckk =
        evaluate(p, RckkScheduling{}.schedule(p, rng));
    const ScheduleMetrics ckk = evaluate(p, CkkScheduling{}.schedule(p, rng));
    EXPECT_LE(ckk.imbalance, rckk.imbalance + 1e-9) << "trial " << trial;
  }
}

TEST(Ckk, FindsPerfectTwoWayPartitionWhenOneExists) {
  Rng rng(11);
  // {5,5,4,3,3} total 20 -> perfect 10/10 exists ({5,5} / {4,3,3}).
  const auto p = problem_with({5, 5, 4, 3, 3}, 2);
  const ScheduleMetrics m = evaluate(p, CkkScheduling{}.schedule(p, rng));
  EXPECT_DOUBLE_EQ(m.imbalance, 0.0);
}

TEST(Ckk, BudgetValidation) {
  CkkScheduling::Options bad;
  bad.node_budget = 0;
  EXPECT_THROW(CkkScheduling{bad}, std::invalid_argument);
}

TEST(KkFamily, AllAlgorithmsDeterministic) {
  std::vector<double> rates;
  Rng seed_rng(12);
  for (int i = 0; i < 20; ++i) rates.push_back(seed_rng.uniform(1.0, 100.0));
  const auto p = problem_with(rates, 4);
  for (const auto* name : {"RCKK", "KK-fwd", "CKK", "LPT", "CGA"}) {
    const auto algo = make_scheduling_algorithm(name);
    ASSERT_NE(algo, nullptr);
    Rng r1(1);
    Rng r2(1);
    const Schedule a = algo->schedule(p, r1);
    const Schedule b = algo->schedule(p, r2);
    EXPECT_EQ(a.instance_of, b.instance_of) << name;
  }
}

TEST(Registry, SchedulingNamesRoundTrip) {
  for (const auto& name : scheduling_algorithm_names()) {
    const auto algo = make_scheduling_algorithm(name);
    ASSERT_NE(algo, nullptr) << name;
    EXPECT_EQ(algo->name(), name);
  }
  EXPECT_EQ(make_scheduling_algorithm("NoSuchAlgo"), nullptr);
}

}  // namespace
}  // namespace nfv::sched
