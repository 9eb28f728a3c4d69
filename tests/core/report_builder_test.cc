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
  const obs::RunReport report = build_run_report(inputs);

  EXPECT_EQ(report.command, "pipeline");
  EXPECT_EQ(report.seed, 42u);

  ASSERT_TRUE(report.placement.present);
  EXPECT_TRUE(report.placement.feasible);
  EXPECT_EQ(report.placement.algorithm, "BFDSU");
  EXPECT_EQ(report.placement.nodes_in_service,
            result.placement_metrics.nodes_in_service);
  EXPECT_GT(report.placement.node_count, 0u);

  ASSERT_TRUE(report.scheduling.present);
  ASSERT_EQ(report.scheduling.vnfs.size(), model.workload.vnfs.size());
  for (std::size_t f = 0; f < report.scheduling.vnfs.size(); ++f) {
    const obs::VnfScheduleEntry& entry = report.scheduling.vnfs[f];
    EXPECT_EQ(entry.vnf, model.workload.vnfs[f].name);
    EXPECT_EQ(entry.instances, result.contexts[f].problem.instance_count);
    EXPECT_EQ(entry.instance_load.size(), entry.instances);
    // Post-admission Λ_k (Eq. 7: effective load, including the 1/P
    // retransmission inflation) must not exceed the total offered rate of
    // the VNF's member requests divided by the delivery probability.
    const double offered = std::accumulate(
        result.contexts[f].problem.arrival_rates.begin(),
        result.contexts[f].problem.arrival_rates.end(), 0.0);
    const double carried = std::accumulate(entry.instance_load.begin(),
                                           entry.instance_load.end(), 0.0);
    EXPECT_LE(carried,
              offered / entry.delivery_prob * (1.0 + 1e-9));
    // Admitted + rejected covers every member request of this VNF.
    EXPECT_EQ(entry.admitted + entry.rejected,
              result.contexts[f].problem.request_count());
  }

  ASSERT_TRUE(report.requests.present);
  EXPECT_EQ(report.requests.total, model.workload.requests.size());
  EXPECT_LE(report.requests.admitted, report.requests.total);
  EXPECT_DOUBLE_EQ(report.requests.rejection_rate, result.job_rejection_rate);

  EXPECT_FALSE(report.des.present);
  EXPECT_FALSE(report.serve);
  EXPECT_FALSE(report.metrics.present);
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
  std::ostringstream os;
  obs::write_run_report(build_run_report(inputs), os);
  const obs::JsonValue loaded = obs::load_run_report(os.str());

  const obs::JsonValue* scheduling = loaded.find("scheduling");
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
  const obs::RunReport report = build_run_report(inputs);
  ASSERT_TRUE(report.metrics.present);
  ASSERT_EQ(report.metrics.snapshot.counters.size(), 1u);
  EXPECT_EQ(report.metrics.snapshot.counters[0].name, "core.joint.runs");
  EXPECT_FALSE(report.placement.present);
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
