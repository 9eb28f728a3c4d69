// Per-request delivery probabilities (the general Eq. 7 form): algorithms
// must balance the effective rates λ_r/P_r, and the Eq. 11 metrics must
// reduce to the Eq. 12 closed form when P is uniform.
#include <gtest/gtest.h>

#include <cmath>

#include "nfv/scheduling/algorithm.h"
#include "nfv/scheduling/metrics.h"

namespace nfv::sched {
namespace {

SchedulingProblem hetero(std::vector<double> rates, std::vector<double> probs,
                         std::uint32_t m, double mu) {
  SchedulingProblem p;
  p.arrival_rates = std::move(rates);
  p.delivery_probs = std::move(probs);
  p.instance_count = m;
  p.service_rate = mu;
  return p;
}

TEST(Heterogeneous, ValidationCatchesBadProbVectors) {
  SchedulingProblem p = hetero({1, 2}, {0.9}, 2, 10.0);  // size mismatch
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = hetero({1, 2}, {0.9, 0.0}, 2, 10.0);  // zero prob
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = hetero({1, 2}, {0.9, 1.2}, 2, 10.0);  // > 1
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = hetero({1, 2}, {0.9, 1.0}, 2, 10.0);
  EXPECT_NO_THROW(p.validate());
}

TEST(Heterogeneous, LossyRequestCountsMore) {
  // Equal raw rates but one request at P = 0.5 doubles its effective load:
  // a balanced 2-way split puts the lossy request alone.
  const auto p = hetero({10, 10, 10}, {0.5, 1.0, 1.0}, 2, 1000.0);
  Rng rng(1);
  for (const auto* name : {"RCKK", "LPT", "CGA", "DP2"}) {
    const auto algo = make_scheduling_algorithm(name);
    const Schedule s = algo->schedule(p, rng);
    const ScheduleMetrics m = evaluate(p, s);
    // Effective loads: lossy request = 20, the two clean = 10 each; the
    // balanced split is {lossy} vs {clean, clean} = 20/20.
    EXPECT_DOUBLE_EQ(m.instance_effective_load[0] -
                         m.instance_effective_load[1],
                     0.0)
        << name;
    EXPECT_NE(s.instance_of[0], s.instance_of[1]) << name;
    EXPECT_EQ(s.instance_of[1], s.instance_of[2]) << name;
  }
}

TEST(Heterogeneous, UniformVectorMatchesScalarSpecialCase) {
  std::vector<double> rates;
  Rng gen(2);
  for (int i = 0; i < 20; ++i) rates.push_back(gen.uniform(1.0, 100.0));
  SchedulingProblem scalar;
  scalar.arrival_rates = rates;
  scalar.delivery_prob = 0.97;
  scalar.instance_count = 4;
  scalar.service_rate = 1000.0;
  SchedulingProblem vectored = scalar;
  vectored.delivery_probs.assign(rates.size(), 0.97);
  for (const auto* name : {"RCKK", "LPT", "CGA", "KK-fwd"}) {
    const auto algo = make_scheduling_algorithm(name);
    Rng r1(1);
    Rng r2(1);
    const Schedule a = algo->schedule(scalar, r1);
    const Schedule b = algo->schedule(vectored, r2);
    EXPECT_EQ(a.instance_of, b.instance_of) << name;
    const ScheduleMetrics ma = evaluate(scalar, a);
    const ScheduleMetrics mb = evaluate(vectored, b);
    EXPECT_EQ(ma.stable, mb.stable) << name;
    if (ma.stable) {  // KK-fwd legitimately saturates (ablation baseline)
      EXPECT_NEAR(ma.avg_response, mb.avg_response, 1e-12) << name;
      EXPECT_NEAR(ma.packet_weighted_response, mb.packet_weighted_response,
                  1e-12)
          << name;
    }
  }
}

TEST(Heterogeneous, Eq11ReducesToEq12UnderUniformP) {
  // W = (ρ/(1−ρ))/Σλ must equal 1/(Pμ − Σλ) when P_r ≡ P.
  const auto p = hetero({30, 50}, {0.98, 0.98}, 2, 100.0);
  Schedule s;
  s.instance_of = {0, 1};
  const ScheduleMetrics m = evaluate(p, s);
  EXPECT_NEAR(m.avg_response,
              (1.0 / (98.0 - 30.0) + 1.0 / (98.0 - 50.0)) / 2.0, 1e-12);
}

TEST(Heterogeneous, StabilityJudgedOnEffectiveLoad) {
  // Raw load 60 < μ = 100, but P = 0.5 makes Λ = 120 > μ: unstable.
  const auto p = hetero({60}, {0.5}, 1, 100.0);
  Schedule s;
  s.instance_of = {0};
  const ScheduleMetrics m = evaluate(p, s);
  EXPECT_FALSE(m.stable);
  EXPECT_TRUE(std::isinf(m.avg_response));
}

TEST(Heterogeneous, AdmissionUsesEffectiveRates) {
  // Two requests of raw 40 each on one instance, μ = 100, ρ_max ≈ 1:
  // with P = 1 both fit (Λ = 80); with P = 0.6 the second would push
  // Λ to 133 and is rejected.
  Schedule s;
  s.instance_of = {0, 0};
  const auto clean = hetero({40, 40}, {1.0, 1.0}, 1, 100.0);
  EXPECT_EQ(apply_admission(clean, s).rejected_count, 0u);
  const auto lossy = hetero({40, 40}, {0.6, 0.6}, 1, 100.0);
  const AdmissionResult a = apply_admission(lossy, s);
  EXPECT_EQ(a.rejected_count, 1u);
  EXPECT_TRUE(a.admitted[0]);
  EXPECT_FALSE(a.admitted[1]);
  EXPECT_TRUE(a.admitted_metrics.stable);
}

TEST(Heterogeneous, PacketWeightedResponseWeighsBusyInstances) {
  // One busy and one idle-ish instance: the packet-weighted mean must sit
  // closer to the busy instance's W than the unweighted mean does.
  const auto p = hetero({90, 5}, {1.0, 1.0}, 2, 100.0);
  Schedule s;
  s.instance_of = {0, 1};
  const ScheduleMetrics m = evaluate(p, s);
  const double w_busy = 1.0 / (100.0 - 90.0);
  EXPECT_GT(m.packet_weighted_response, m.avg_response);
  EXPECT_LT(m.packet_weighted_response, w_busy);
}

TEST(Heterogeneous, RckkBalancesEffectiveNotRawLoads) {
  // Heavy loss on half the requests: RCKK's effective-load imbalance must
  // be far smaller than its raw imbalance would suggest.
  Rng gen(3);
  std::vector<double> rates;
  std::vector<double> probs;
  for (int i = 0; i < 40; ++i) {
    rates.push_back(gen.uniform(10.0, 100.0));
    probs.push_back(i % 2 == 0 ? 0.5 : 1.0);
  }
  const auto p = hetero(rates, probs, 4, 1e6);
  Rng rng(1);
  const ScheduleMetrics m = evaluate(p, RckkScheduling{}.schedule(p, rng));
  const auto [lo, hi] = std::minmax_element(
      m.instance_effective_load.begin(), m.instance_effective_load.end());
  EXPECT_LT((*hi - *lo) / *hi, 0.02);  // effective loads within 2%
}

}  // namespace
}  // namespace nfv::sched
