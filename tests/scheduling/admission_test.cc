#include <gtest/gtest.h>

#include "nfv/scheduling/algorithm.h"
#include "nfv/scheduling/metrics.h"

namespace nfv::sched {
namespace {

SchedulingProblem problem_with(std::vector<double> rates, std::uint32_t m,
                               double mu, double p) {
  SchedulingProblem out;
  out.arrival_rates = std::move(rates);
  out.instance_count = m;
  out.service_rate = mu;
  out.delivery_prob = p;
  return out;
}

TEST(Admission, AllAdmittedWhenUnderloaded) {
  const auto p = problem_with({10, 20, 30}, 2, 100.0, 1.0);
  Schedule s;
  s.instance_of = {0, 0, 1};
  const AdmissionResult a = apply_admission(p, s);
  EXPECT_EQ(a.rejected_count, 0u);
  EXPECT_DOUBLE_EQ(a.rejection_rate, 0.0);
  for (const bool ok : a.admitted) EXPECT_TRUE(ok);
}

TEST(Admission, RejectsOverloadInArrivalOrder) {
  // Instance 0 gets 60+50: the second request pushes past Pμ=100 and is
  // rejected; the third (on instance 1) passes.
  const auto p = problem_with({60, 50, 30}, 2, 100.0, 1.0);
  Schedule s;
  s.instance_of = {0, 0, 1};
  const AdmissionResult a = apply_admission(p, s, 1.0);
  EXPECT_TRUE(a.admitted[0]);
  EXPECT_FALSE(a.admitted[1]);
  EXPECT_TRUE(a.admitted[2]);
  EXPECT_EQ(a.rejected_count, 1u);
  EXPECT_NEAR(a.rejection_rate, 1.0 / 3.0, 1e-12);
}

TEST(Admission, AdmittedLoadsAreStable) {
  // Heavy overload: whatever is admitted must satisfy ρ < ρ_max.
  std::vector<double> rates(50, 10.0);  // 500 total into Pμ=98
  const auto p = problem_with(rates, 2, 100.0, 0.98);
  Schedule s;
  s.instance_of.resize(50);
  for (std::size_t i = 0; i < 50; ++i) {
    s.instance_of[i] = static_cast<std::uint32_t>(i % 2);
  }
  const AdmissionResult a = apply_admission(p, s, 0.999);
  EXPECT_GT(a.rejected_count, 0u);
  EXPECT_TRUE(a.admitted_metrics.stable);
  for (const double u : a.admitted_metrics.utilization) {
    EXPECT_LT(u, 0.999);
  }
}

TEST(Admission, RhoMaxControlsTheCeiling) {
  const auto p = problem_with({50, 45}, 1, 100.0, 1.0);
  Schedule s;
  s.instance_of = {0, 0};
  // ρ_max = 0.999: 50+45=95 < 99.9 -> both admitted.
  EXPECT_EQ(apply_admission(p, s, 0.999).rejected_count, 0u);
  // ρ_max = 0.6: 50 admitted (50 < 60), 45 would reach 95 -> rejected.
  const AdmissionResult tight = apply_admission(p, s, 0.6);
  EXPECT_TRUE(tight.admitted[0]);
  EXPECT_FALSE(tight.admitted[1]);
}

TEST(Admission, LossShrinksEffectiveCapacity) {
  const auto lossless = problem_with({97, 97}, 2, 100.0, 1.0);
  const auto lossy = problem_with({97, 97}, 2, 100.0, 0.96);  // Pμ = 96
  Schedule s;
  s.instance_of = {0, 1};
  EXPECT_EQ(apply_admission(lossless, s).rejected_count, 0u);
  EXPECT_EQ(apply_admission(lossy, s).rejected_count, 2u);
}

TEST(Admission, BetterBalanceRejectsLess) {
  // The Figs. 15-16 mechanism: at high load, the unbalanced schedule
  // rejects requests the balanced one can carry.
  std::vector<double> rates{40, 40, 40, 40};  // total 160, 2×Pμ = 200
  const auto p = problem_with(rates, 2, 100.0, 1.0);
  Schedule balanced;
  balanced.instance_of = {0, 1, 0, 1};  // 80/80
  Schedule skewed;
  skewed.instance_of = {0, 0, 0, 1};  // 120/40
  EXPECT_EQ(apply_admission(p, balanced).rejected_count, 0u);
  EXPECT_GT(apply_admission(p, skewed).rejected_count, 0u);
}

TEST(Admission, ValidatesRhoMax) {
  const auto p = problem_with({10}, 1, 100.0, 1.0);
  Schedule s;
  s.instance_of = {0};
  EXPECT_THROW((void)apply_admission(p, s, 0.0), std::invalid_argument);
  EXPECT_THROW((void)apply_admission(p, s, 1.5), std::invalid_argument);
}

TEST(Admission, RckkRejectsLessThanCgaOnlineUnderPressure) {
  // The paper's baseline: CGA's first descent, requests in arrival order.
  const auto cga_online = make_scheduling_algorithm("CGA-online");
  Rng rng(42);
  int rckk_fewer = 0;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> rates;
    double total = 0.0;
    for (int i = 0; i < 40; ++i) {
      rates.push_back(rng.uniform(1.0, 100.0));
      total += rates.back();
    }
    // Size μ so perfect balance sits just under capacity: ρ_balanced ≈ 0.97.
    const double mu = total / 4.0 / 0.97;
    const auto p = problem_with(rates, 4, mu, 1.0);
    const auto rckk =
        apply_admission(p, RckkScheduling{}.schedule(p, rng), 0.999);
    const auto cga = apply_admission(p, cga_online->schedule(p, rng), 0.999);
    if (rckk.rejected_count <= cga.rejected_count) ++rckk_fewer;
  }
  EXPECT_GE(rckk_fewer, 16);
}

}  // namespace
}  // namespace nfv::sched
