#include "nfv/core/report_builder.h"

#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "nfv/topology/builders.h"
#include "nfv/workload/generator.h"

namespace nfv::core {
namespace {

SystemModel make_model(std::uint64_t seed) {
  Rng rng(seed);
  SystemModel model;
  model.topology = topo::make_star(8, topo::CapacitySpec{3000.0, 5000.0},
                                   topo::LinkSpec{1e-4}, rng);
  workload::WorkloadConfig cfg;
  cfg.vnf_count = 10;
  cfg.request_count = 60;
  model.workload = workload::WorkloadGenerator(cfg).generate(rng);
  return model;
}

/// The report `inputs` describe, written and loaded back.
obs::JsonValue written(const ReportInputs& inputs) {
  std::ostringstream os;
  obs::write_run_report(build_run_report(inputs), os);
  return obs::load_run_report(os.str());
}

TEST(ReportBuilder, FillsSectionsFromJointResult) {
  const SystemModel model = make_model(1);
  const JointOptimizer optimizer{JointConfig{}};
  const JointResult result = optimizer.run(model, 42);
  ASSERT_TRUE(result.feasible);

  ReportInputs inputs;
  inputs.command = "pipeline";
  inputs.seed = 42;
  inputs.placement_algorithm = "BFDSU";
  inputs.scheduling_algorithm = "RCKK";
  inputs.model = &model;
  inputs.result = &result;
  const obs::JsonValue report = written(inputs);

  EXPECT_EQ(report.string_or("command"), "pipeline");
  EXPECT_EQ(report.number_or("seed"), 42.0);

  const obs::JsonValue* placement = report.find("placement");
  ASSERT_NE(placement, nullptr);
  const obs::JsonValue* feasible = placement->find("feasible");
  ASSERT_NE(feasible, nullptr);
  EXPECT_TRUE(feasible->as_bool());
  EXPECT_EQ(placement->string_or("algorithm"), "BFDSU");
  EXPECT_EQ(placement->number_or("nodes_in_service"),
            static_cast<double>(result.placement_metrics.nodes_in_service));
  EXPECT_GT(placement->number_or("node_count"), 0.0);

  const obs::JsonValue* scheduling = report.find("scheduling");
  ASSERT_NE(scheduling, nullptr);
  const auto& vnfs = scheduling->find("vnfs")->as_array();
  ASSERT_EQ(vnfs.size(), model.workload.vnfs.size());
  for (std::size_t f = 0; f < vnfs.size(); ++f) {
    const obs::JsonValue& entry = vnfs[f];
    const sched::SchedulingProblem& problem = result.contexts[f].problem;
    EXPECT_EQ(entry.string_or("vnf"), model.workload.vnfs[f].name);
    EXPECT_EQ(entry.number_or("instances"),
              static_cast<double>(problem.instance_count));
    const auto& loads = entry.find("instance_load")->as_array();
    EXPECT_EQ(loads.size(), problem.instance_count);
    // Post-admission Λ_k (Eq. 7: effective load, including the 1/P
    // retransmission inflation) must not exceed the total offered rate of
    // the VNF's member requests divided by the delivery probability.
    const double offered = std::accumulate(problem.arrival_rates.begin(),
                                           problem.arrival_rates.end(), 0.0);
    double carried = 0.0;
    for (const obs::JsonValue& load : loads) carried += load.as_number();
    EXPECT_LE(carried,
              offered / entry.number_or("delivery_prob") * (1.0 + 1e-9));
    // Admitted + rejected covers every member request of this VNF.
    EXPECT_EQ(entry.number_or("admitted") + entry.number_or("rejected"),
              static_cast<double>(problem.request_count()));
  }

  const obs::JsonValue* requests = report.find("requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->number_or("total"),
            static_cast<double>(model.workload.requests.size()));
  EXPECT_LE(requests->number_or("admitted"), requests->number_or("total"));
  EXPECT_DOUBLE_EQ(requests->number_or("rejection_rate"),
                   result.job_rejection_rate);

  EXPECT_EQ(report.find("des"), nullptr);
  EXPECT_EQ(report.find("serve"), nullptr);
  EXPECT_EQ(report.find("metrics"), nullptr);
}

TEST(ReportBuilder, SerializedReportContainsPerInstanceLoads) {
  const SystemModel model = make_model(2);
  const JointOptimizer optimizer{JointConfig{}};
  const JointResult result = optimizer.run(model, 7);
  ASSERT_TRUE(result.feasible);

  ReportInputs inputs;
  inputs.command = "pipeline";
  inputs.seed = 7;
  inputs.placement_algorithm = "BFDSU";
  inputs.scheduling_algorithm = "RCKK";
  inputs.model = &model;
  inputs.result = &result;
  const obs::JsonValue report = written(inputs);
  const obs::JsonValue* scheduling = report.find("scheduling");
  ASSERT_NE(scheduling, nullptr);
  const auto& vnfs = scheduling->find("vnfs")->as_array();
  ASSERT_EQ(vnfs.size(), model.workload.vnfs.size());
  bool saw_load = false;
  for (const auto& vnf : vnfs) {
    const obs::JsonValue* loads = vnf.find("instance_load");
    ASSERT_NE(loads, nullptr);
    for (const auto& load : loads->as_array()) {
      EXPECT_GE(load.as_number(), 0.0);
      if (load.as_number() > 0.0) saw_load = true;
    }
  }
  EXPECT_TRUE(saw_load);
}

TEST(ReportBuilder, MetricsRegistrySnapshotIsEmbedded) {
  obs::MetricsRegistry reg;
  reg.counter("core.joint.runs").add(1);
  ReportInputs inputs;
  inputs.command = "schedule";
  inputs.seed = 3;
  inputs.metrics = &reg;
  const obs::JsonValue report = written(inputs);
  const obs::JsonValue* metrics = report.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const auto& counters = metrics->find("counters")->as_object();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters.begin()->first, "core.joint.runs");
  EXPECT_EQ(report.find("placement"), nullptr);
}

TEST(ReportBuilder, ResultWithoutModelIsRejected) {
  const SystemModel model = make_model(3);
  const JointOptimizer optimizer{JointConfig{}};
  const JointResult result = optimizer.run(model, 1);
  ReportInputs inputs;
  inputs.command = "pipeline";
  inputs.result = &result;  // model deliberately missing
  EXPECT_THROW((void)build_run_report(inputs), std::invalid_argument);
}

}  // namespace
}  // namespace nfv::core
