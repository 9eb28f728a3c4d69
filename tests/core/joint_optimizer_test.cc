#include "nfv/core/joint_optimizer.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "nfv/topology/builders.h"
#include "nfv/workload/generator.h"

namespace nfv::core {
namespace {

SystemModel make_model(std::uint64_t seed, std::size_t nodes = 8,
                       std::uint32_t vnfs = 10, std::uint32_t requests = 60) {
  Rng rng(seed);
  SystemModel model;
  model.topology = topo::make_star(nodes, topo::CapacitySpec{3000.0, 5000.0},
                                   topo::LinkSpec{1e-4}, rng);
  workload::WorkloadConfig cfg;
  cfg.vnf_count = vnfs;
  cfg.request_count = requests;
  model.workload = workload::WorkloadGenerator(cfg).generate(rng);
  return model;
}

TEST(JointOptimizer, EndToEndPipelineProducesFeasibleResult) {
  const SystemModel model = make_model(1);
  const JointOptimizer optimizer{JointConfig{}};
  const JointResult result = optimizer.run(model, 42);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(result.placement.feasible);
  EXPECT_EQ(result.schedules.size(), model.workload.vnfs.size());
  EXPECT_EQ(result.requests.size(), model.workload.requests.size());
  EXPECT_GT(result.placement_metrics.nodes_in_service, 0u);
  EXPECT_GT(result.avg_response, 0.0);
}

TEST(JointOptimizer, DeterministicGivenSeed) {
  const SystemModel model = make_model(2);
  const JointOptimizer optimizer{JointConfig{}};
  const JointResult a = optimizer.run(model, 7);
  const JointResult b = optimizer.run(model, 7);
  ASSERT_TRUE(a.feasible && b.feasible);
  EXPECT_DOUBLE_EQ(a.total_latency, b.total_latency);
  EXPECT_EQ(a.job_rejection_rate, b.job_rejection_rate);
  for (std::size_t f = 0; f < a.placement.assignment.size(); ++f) {
    EXPECT_EQ(*a.placement.assignment[f], *b.placement.assignment[f]);
  }
}

TEST(JointOptimizer, AdmittedRequestsHaveConsistentOutcomes) {
  const SystemModel model = make_model(3);
  const JointOptimizer optimizer{JointConfig{}};
  const JointResult result = optimizer.run(model, 1);
  ASSERT_TRUE(result.feasible);
  const double link_l = model.topology.mean_link_latency();
  for (std::size_t r = 0; r < result.requests.size(); ++r) {
    const RequestOutcome& out = result.requests[r];
    const auto& chain = model.workload.requests[r].chain;
    if (!out.admitted) {
      EXPECT_EQ(out.response_latency, 0.0);
      EXPECT_EQ(out.nodes_traversed, 0u);
      continue;
    }
    EXPECT_GT(out.response_latency, 0.0);
    EXPECT_GE(out.nodes_traversed, 1u);
    EXPECT_LE(out.nodes_traversed, chain.size());
    EXPECT_NEAR(out.link_latency,
                static_cast<double>(out.nodes_traversed - 1) * link_l, 1e-12);
    EXPECT_DOUBLE_EQ(out.total_latency(),
                     out.response_latency + out.link_latency);
  }
}

TEST(JointOptimizer, Eq16TotalSumsAdmittedRequests) {
  const SystemModel model = make_model(4);
  const JointOptimizer optimizer{JointConfig{}};
  const JointResult result = optimizer.run(model, 9);
  ASSERT_TRUE(result.feasible);
  double total = 0.0;
  std::size_t admitted = 0;
  for (const RequestOutcome& out : result.requests) {
    if (out.admitted) {
      total += out.total_latency();
      ++admitted;
    }
  }
  EXPECT_NEAR(result.total_latency, total, 1e-9);
  if (admitted > 0) {
    EXPECT_NEAR(result.avg_total_latency,
                total / static_cast<double>(admitted), 1e-12);
  }
  EXPECT_NEAR(result.job_rejection_rate,
              1.0 - static_cast<double>(admitted) /
                        static_cast<double>(result.requests.size()),
              1e-12);
}

TEST(JointOptimizer, InfeasiblePlacementShortCircuits) {
  Rng rng(5);
  SystemModel model;
  model.topology = topo::make_star(2, topo::CapacitySpec{10.0, 10.0},
                                   topo::LinkSpec{}, rng);
  workload::WorkloadConfig cfg;
  cfg.vnf_count = 6;
  cfg.request_count = 30;
  cfg.fixed_demand_per_instance = 50.0;  // far beyond 2x10 capacity
  model.workload = workload::WorkloadGenerator(cfg).generate(rng);
  const JointOptimizer optimizer{JointConfig{}};
  const JointResult result = optimizer.run(model, 1);
  EXPECT_FALSE(result.feasible);
  EXPECT_FALSE(result.placement.feasible);
  EXPECT_TRUE(result.schedules.empty());
}

TEST(JointOptimizer, LinkLatencyOverrideScalesEq16) {
  // Small node capacities force the placement to span several nodes so
  // that the (Σ η − 1)·L term of Eq. 16 is actually exercised (on roomy
  // nodes BFDSU legitimately consolidates everything onto one node and
  // the link term vanishes).
  Rng rng(6);
  SystemModel model;
  model.topology = topo::make_star(8, topo::CapacitySpec{400.0, 600.0},
                                   topo::LinkSpec{1e-4}, rng);
  workload::WorkloadConfig wcfg;
  wcfg.vnf_count = 10;
  wcfg.request_count = 60;
  wcfg.fixed_demand_per_instance = 50.0;  // VNF footprints ≈ 100-300 units
  model.workload = workload::WorkloadGenerator(wcfg).generate(rng);
  JointConfig cheap;
  cheap.link_latency = 0.0;
  JointConfig expensive;
  expensive.link_latency = 1.0;
  const JointResult a = JointOptimizer(cheap).run(model, 3);
  const JointResult b = JointOptimizer(expensive).run(model, 3);
  ASSERT_TRUE(a.feasible && b.feasible);
  // Same placement/schedules (same seed) -> identical response part; the
  // link part grows with L.
  EXPECT_GT(b.total_latency, a.total_latency);
  for (std::size_t r = 0; r < a.requests.size(); ++r) {
    if (a.requests[r].admitted) {
      EXPECT_DOUBLE_EQ(a.requests[r].link_latency, 0.0);
      EXPECT_DOUBLE_EQ(a.requests[r].response_latency,
                       b.requests[r].response_latency);
    }
  }
}

TEST(JointOptimizer, UnknownAlgorithmNamesThrow) {
  const SystemModel model = make_model(7, 4, 6, 20);
  JointConfig bad;
  bad.placement_algorithm = "nope";
  EXPECT_THROW((void)JointOptimizer(bad).run(model, 1),
               std::invalid_argument);
  bad = JointConfig{};
  bad.scheduling_algorithm = "nope";
  EXPECT_THROW((void)JointOptimizer(bad).run(model, 1),
               std::invalid_argument);
}

TEST(JointOptimizer, ConfigValidation) {
  JointConfig bad;
  bad.rho_max = 0.0;
  EXPECT_THROW(JointOptimizer{bad}, std::invalid_argument);
  bad = JointConfig{};
  bad.link_latency = -1.0;
  EXPECT_THROW(JointOptimizer{bad}, std::invalid_argument);
}

TEST(MakeSchedulingContexts, MembersMatchChains) {
  const SystemModel model = make_model(8, 6, 8, 40);
  const auto contexts = make_scheduling_contexts(model.workload);
  ASSERT_EQ(contexts.size(), model.workload.vnfs.size());
  for (std::size_t f = 0; f < contexts.size(); ++f) {
    const auto& ctx = contexts[f];
    ASSERT_EQ(ctx.members.size(), ctx.problem.request_count());
    for (std::size_t pos = 0; pos < ctx.members.size(); ++pos) {
      const auto& request =
          model.workload.requests[ctx.members[pos].index()];
      EXPECT_TRUE(request.uses(VnfId{static_cast<std::uint32_t>(f)}));
      EXPECT_DOUBLE_EQ(ctx.problem.arrival_rates[pos],
                       request.arrival_rate);
    }
  }
}

TEST(JointOptimizer, NodesTraversedMatchesSetSemantics) {
  // Regression guard for the Eq. 16 scratch-vector dedup: nodes_traversed
  // must equal the number of *distinct* nodes hosting the chain's VNFs —
  // recomputed here with the std::set the hot loop used to build.
  Rng rng(10);
  SystemModel model;
  model.topology = topo::make_star(8, topo::CapacitySpec{400.0, 600.0},
                                   topo::LinkSpec{1e-4}, rng);
  workload::WorkloadConfig cfg;
  cfg.vnf_count = 10;
  cfg.request_count = 60;
  cfg.fixed_demand_per_instance = 50.0;  // force multi-node chains
  model.workload = workload::WorkloadGenerator(cfg).generate(rng);
  const JointResult result = JointOptimizer{JointConfig{}}.run(model, 4);
  ASSERT_TRUE(result.feasible);
  bool saw_multi_node_chain = false;
  for (std::size_t r = 0; r < result.requests.size(); ++r) {
    if (!result.requests[r].admitted) continue;
    std::set<NodeId> nodes;
    for (const VnfId f : model.workload.requests[r].chain) {
      nodes.insert(*result.placement.assignment[f.index()]);
    }
    EXPECT_EQ(result.requests[r].nodes_traversed, nodes.size());
    saw_multi_node_chain |= nodes.size() > 1;
  }
  EXPECT_TRUE(saw_multi_node_chain);  // the guard must exercise dedup
}

TEST(JointOptimizer, ChainAwarePlacersSeeTheWorkloadsChains) {
  // run() builds chains only for a placer that reads_chains(); NAH and
  // CABP must get the very problem make_problem() builds.
  const SystemModel model = make_model(11);
  const placement::PlacementProblem problem =
      placement::make_problem(model.topology, model.workload);
  ASSERT_FALSE(problem.chains.empty());
  for (const std::string& name : placement::placement_algorithm_names()) {
    EXPECT_EQ(placement::make_placement_algorithm(name)->reads_chains(),
              name == "NAH" || name == "CABP")
        << name;
  }
  for (const std::string name : {"NAH", "CABP"}) {
    SCOPED_TRACE(name);
    const auto algo = placement::make_placement_algorithm(name);
    ASSERT_NE(algo, nullptr);
    EXPECT_TRUE(algo->reads_chains());
    Rng rng(5);
    const placement::Placement want = algo->place(problem, rng);
    ASSERT_TRUE(want.feasible);
    JointConfig cfg;
    cfg.placement_algorithm = name;
    const JointResult got = JointOptimizer{cfg}.run(model, 5);
    EXPECT_EQ(got.placement.assignment, want.assignment);
    EXPECT_EQ(got.placement.feasible, want.feasible);
    EXPECT_EQ(got.placement.iterations, want.iterations);
  }
}

TEST(SystemModel, ValidateCatchesBrokenModels) {
  Rng rng(9);
  SystemModel model;
  model.topology = topo::make_star(2, topo::CapacitySpec{100.0, 100.0},
                                   topo::LinkSpec{}, rng);
  EXPECT_THROW(model.validate(), std::invalid_argument);  // no workload
  workload::WorkloadConfig cfg;
  cfg.vnf_count = 2;
  cfg.request_count = 5;
  model.workload = workload::WorkloadGenerator(cfg).generate(rng);
  EXPECT_NO_THROW(model.validate());
  model.workload.requests[0].chain = {VnfId{99}};  // dangling reference
  EXPECT_THROW(model.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace nfv::core
