// Property sweeps over all schedulers: validity, conservation, and the
// paper's headline ordering (RCKK <= CGA on average response) across
// request/instance scales.
#include <gtest/gtest.h>

#include <string>

#include "nfv/scheduling/algorithm.h"
#include "nfv/scheduling/metrics.h"

namespace nfv::sched {
namespace {

struct Scenario {
  std::string algorithm;
  std::size_t requests;
  std::uint32_t instances;
  double delivery_prob;
};

class SchedulingPropertyTest : public ::testing::TestWithParam<Scenario> {};

SchedulingProblem random_problem(const Scenario& s, Rng& rng) {
  SchedulingProblem p;
  double total = 0.0;
  for (std::size_t i = 0; i < s.requests; ++i) {
    p.arrival_rates.push_back(rng.uniform(1.0, 100.0));
    total += p.arrival_rates.back();
  }
  p.instance_count = s.instances;
  p.delivery_prob = s.delivery_prob;
  // Paper protocol ("we scale μ_f with the number of requests"): μ tracks
  // the raw offered load with 1.25 headroom, so packet loss genuinely
  // shrinks the effective capacity P·μ (Figs. 11 vs 12).
  p.service_rate = 1.25 * total / static_cast<double>(s.instances);
  return p;
}

TEST_P(SchedulingPropertyTest, SchedulesAreValidAndConservative) {
  const Scenario s = GetParam();
  const auto algo = make_scheduling_algorithm(s.algorithm);
  ASSERT_NE(algo, nullptr);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed * 104729 + 7);
    const SchedulingProblem p = random_problem(s, rng);
    const Schedule schedule = algo->schedule(p, rng);
    // Eq. 5: every request on exactly one instance, in range.
    schedule.validate(p);
    const ScheduleMetrics m = evaluate(p, schedule);
    double sum = 0.0;
    for (const double l : m.instance_load) sum += l;
    double total = 0.0;
    for (const double r : p.arrival_rates) total += r;
    EXPECT_NEAR(sum, total, 1e-6);
    // With 1.25 headroom and enough requests per instance to balance,
    // every sane scheduler keeps all instances stable.  (With n close to m
    // a single hot request can exceed P·μ no matter the assignment, and
    // forward-KK is the deliberately unbalanced ablation.)
    if (s.requests >= 3 * s.instances && s.algorithm != "KK-fwd") {
      EXPECT_TRUE(m.stable) << s.algorithm << " seed " << seed;
    }
    // Max load can never undercut the perfect-balance bound.
    EXPECT_GE(m.max_load + 1e-9,
              total / static_cast<double>(p.instance_count));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedulingPropertyTest,
    ::testing::Values(
        Scenario{"RCKK", 15, 5, 0.98}, Scenario{"RCKK", 250, 5, 0.98},
        Scenario{"RCKK", 50, 2, 1.0}, Scenario{"RCKK", 50, 10, 1.0},
        Scenario{"CGA", 15, 5, 0.98}, Scenario{"CGA", 250, 5, 0.98},
        Scenario{"CGA", 50, 10, 1.0}, Scenario{"LPT", 100, 7, 0.99},
        Scenario{"KK-fwd", 100, 7, 0.99}, Scenario{"CKK", 20, 3, 0.98},
        Scenario{"RCKK", 2, 2, 0.98}, Scenario{"CGA", 2, 2, 0.98}),
    [](const ::testing::TestParamInfo<Scenario>& param_info) {
      std::string name = param_info.param.algorithm;
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_" + std::to_string(param_info.param.requests) + "r_" +
             std::to_string(param_info.param.instances) + "m_" +
             std::to_string(static_cast<int>(param_info.param.delivery_prob * 100));
    });

TEST(SchedulingAggregate, RckkBeatsCgaOnAverageResponse) {
  // The Figs. 11-14 headline, averaged across random instances at the
  // paper's scale (m=5, n in the low tens where the gap is widest).
  double rckk_sum = 0.0;
  double cga_sum = 0.0;
  const Scenario s{"", 25, 5, 0.98};
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed + 31);
    const SchedulingProblem p = random_problem(s, rng);
    rckk_sum += evaluate(p, RckkScheduling{}.schedule(p, rng)).avg_response;
    cga_sum += evaluate(p, CgaScheduling{}.schedule(p, rng)).avg_response;
  }
  EXPECT_LT(rckk_sum, cga_sum);
}

TEST(SchedulingAggregate, GapShrinksWithManyRequests) {
  // Figs. 11-12: the enhancement ratio decays as requests grow (both
  // algorithms balance well when every instance carries many flows).
  auto mean_gap = [](std::size_t n) {
    const Scenario s{"", n, 5, 0.98};
    double gap = 0.0;
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
      Rng rng(seed + 97);
      const SchedulingProblem p = random_problem(s, rng);
      const double rckk =
          evaluate(p, RckkScheduling{}.schedule(p, rng)).avg_response;
      const double cga =
          evaluate(p, CgaScheduling{}.schedule(p, rng)).avg_response;
      gap += enhancement_ratio(cga, rckk);
    }
    return gap / 30.0;
  };
  EXPECT_GT(mean_gap(15), mean_gap(250));
}

TEST(SchedulingAggregate, LossRaisesResponseEverywhere) {
  // Fig. 11 vs 12: same schedules, lower P -> higher W.
  const Scenario lossy{"", 50, 5, 0.98};
  const Scenario clean{"", 50, 5, 1.00};
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng1(seed);
    Rng rng2(seed);
    const SchedulingProblem p_lossy = random_problem(lossy, rng1);
    const SchedulingProblem p_clean = random_problem(clean, rng2);
    // Same rates (same seed), same μ scaling formula: compare W.
    Rng s1(seed);
    Rng s2(seed);
    const double w_lossy =
        evaluate(p_lossy, RckkScheduling{}.schedule(p_lossy, s1)).avg_response;
    const double w_clean =
        evaluate(p_clean, RckkScheduling{}.schedule(p_clean, s2)).avg_response;
    EXPECT_GT(w_lossy, w_clean) << "seed " << seed;
  }
}

}  // namespace
}  // namespace nfv::sched
