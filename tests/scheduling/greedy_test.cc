#include <gtest/gtest.h>

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

TEST(Lpt, ClassicInstance) {
  // {8,7,6,5,4} on 2 machines: LPT -> {8,5,4}=17? No: 8->A,7->B,6->B(13)?
  // LPT assigns to least loaded: 8->A(8), 7->B(7), 6->B(13)? B=7 < A=8 so
  // 6->B(13), 5->A(13), 4->either(17/13) -> max 17. Optimum is 15.
  Rng rng(1);
  const auto p = problem_with({8, 7, 6, 5, 4}, 2);
  const Schedule s = LptScheduling{}.schedule(p, rng);
  const ScheduleMetrics m = evaluate(p, s);
  EXPECT_DOUBLE_EQ(m.max_load, 17.0);
  EXPECT_DOUBLE_EQ(m.min_load, 13.0);
}

TEST(Lpt, BalancesEqualRates) {
  Rng rng(2);
  const auto p = problem_with(std::vector<double>(12, 5.0), 4);
  const Schedule s = LptScheduling{}.schedule(p, rng);
  const ScheduleMetrics m = evaluate(p, s);
  EXPECT_DOUBLE_EQ(m.imbalance, 0.0);
  EXPECT_DOUBLE_EQ(m.max_load, 15.0);
}

TEST(Lpt, SingleInstanceGetsEverything) {
  Rng rng(3);
  const auto p = problem_with({1, 2, 3}, 1);
  const Schedule s = LptScheduling{}.schedule(p, rng);
  for (const auto k : s.instance_of) EXPECT_EQ(k, 0u);
}

TEST(Lpt, MoreInstancesThanRequests) {
  Rng rng(4);
  const auto p = problem_with({5, 3}, 4);
  const Schedule s = LptScheduling{}.schedule(p, rng);
  const ScheduleMetrics m = evaluate(p, s);
  // Each request alone on an instance; two instances idle.
  EXPECT_DOUBLE_EQ(m.max_load, 5.0);
  EXPECT_DOUBLE_EQ(m.min_load, 0.0);
}

TEST(Greedy, WorkCountsRequests) {
  Rng rng(7);
  const auto p = problem_with({1, 2, 3, 4}, 2);
  EXPECT_EQ(LptScheduling{}.schedule(p, rng).work, 4u);
}

}  // namespace
}  // namespace nfv::sched
