#include "nfv/queueing/hypoexp.h"

#include <gtest/gtest.h>

#include <cmath>

#include "nfv/sim/des.h"

namespace nfv::queueing {
namespace {

TEST(Hypoexp, SingleStageIsExponential) {
  const Hypoexponential h({4.0});
  EXPECT_DOUBLE_EQ(h.mean(), 0.25);
  EXPECT_DOUBLE_EQ(h.variance(), 0.0625);
  EXPECT_NEAR(h.cdf(0.25), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_NEAR(h.quantile(0.5), std::log(2.0) / 4.0, 1e-9);
  EXPECT_DOUBLE_EQ(h.cdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.cdf(-1.0), 0.0);
}

TEST(Hypoexp, TwoDistinctStagesClosedForm) {
  // F(t) = 1 − (ν2 e^{−ν1 t} − ν1 e^{−ν2 t})/(ν2 − ν1) for ν1 ≠ ν2.
  const double nu1 = 2.0;
  const double nu2 = 5.0;
  const Hypoexponential h({nu1, nu2});
  for (const double t : {0.1, 0.5, 1.0, 2.0}) {
    const double expected =
        1.0 - (nu2 * std::exp(-nu1 * t) - nu1 * std::exp(-nu2 * t)) /
                  (nu2 - nu1);
    EXPECT_NEAR(h.cdf(t), expected, 1e-10) << "t=" << t;
  }
  EXPECT_NEAR(h.mean(), 1.0 / nu1 + 1.0 / nu2, 1e-12);
}

TEST(Hypoexp, EqualRatesHandledViaJitter) {
  // Erlang-2 with rate 3: F(t) = 1 − e^{−3t}(1 + 3t).
  const Hypoexponential h({3.0, 3.0});
  for (const double t : {0.1, 0.5, 1.0}) {
    const double erlang = 1.0 - std::exp(-3.0 * t) * (1.0 + 3.0 * t);
    EXPECT_NEAR(h.cdf(t), erlang, 1e-5) << "t=" << t;
  }
  EXPECT_NEAR(h.mean(), 2.0 / 3.0, 1e-8);
}

TEST(Hypoexp, CdfIsMonotoneAndProper) {
  const Hypoexponential h({1.0, 3.0, 7.0, 7.0, 15.0});
  double prev = 0.0;
  for (double t = 0.0; t < 20.0; t += 0.05) {
    const double c = h.cdf(t);
    EXPECT_GE(c, prev - 1e-12);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
  EXPECT_GT(h.cdf(50.0), 0.999999);
}

TEST(Hypoexp, QuantileInvertsCdf) {
  const Hypoexponential h({2.0, 6.0, 11.0});
  for (const double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    const double t = h.quantile(q);
    EXPECT_NEAR(h.cdf(t), q, 1e-8) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_THROW((void)h.quantile(1.0), std::invalid_argument);
  EXPECT_THROW((void)h.quantile(-0.1), std::invalid_argument);
}

TEST(Hypoexp, ChainSojournBuildsFromSlacks) {
  const auto h = chain_sojourn({10.0, 8.0}, {4.0, 4.0});
  // Slacks 6 and 4 -> mean = 1/6 + 1/4.
  EXPECT_NEAR(h.mean(), 1.0 / 6.0 + 1.0 / 4.0, 1e-12);
  EXPECT_THROW((void)chain_sojourn({10.0}, {10.0}), std::invalid_argument);
  EXPECT_THROW((void)chain_sojourn({10.0, 8.0}, {4.0}),
               std::invalid_argument);
}

TEST(Hypoexp, PredictsSimulatedTandemTail) {
  // The headline feature: analytic p99 of a lossless tandem chain matches
  // the packet-level simulator.
  sim::SimNetwork net;
  net.stations = {sim::Station{10.0}, sim::Station{8.0}};
  sim::Flow f;
  f.rate = 4.0;
  f.delivery_prob = 1.0;
  f.path = {0, 1};
  net.flows.push_back(f);
  sim::SimConfig cfg;
  cfg.duration = 5000.0;
  cfg.warmup = 500.0;
  cfg.seed = 321;
  cfg.keep_samples = true;
  const auto r = sim::simulate(net, cfg);

  const auto h = chain_sojourn({10.0, 8.0}, {4.0, 4.0});
  EXPECT_NEAR(r.flows[0].samples.median(), h.quantile(0.5),
              0.1 * h.quantile(0.5));
  EXPECT_NEAR(r.flows[0].samples.p99(), h.quantile(0.99),
              0.12 * h.quantile(0.99));
}

TEST(Hypoexp, RejectsBadRates) {
  EXPECT_THROW(Hypoexponential(std::vector<double>{}),
               std::invalid_argument);
  EXPECT_THROW(Hypoexponential({1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(Hypoexponential({-2.0}), std::invalid_argument);
}

}  // namespace
}  // namespace nfv::queueing
