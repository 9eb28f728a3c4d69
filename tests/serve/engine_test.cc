#include "nfv/serve/engine.h"

#include <gtest/gtest.h>

#include <sstream>

#include "nfv/common/rng.h"
#include "nfv/workload/generator.h"

namespace nfv::serve {
namespace {

using workload::StreamEvent;
using workload::StreamEventKind;

topo::Topology make_topo(const std::vector<double>& capacities) {
  topo::Topology t;
  std::vector<NodeId> ids;
  ids.reserve(capacities.size());
  for (const double c : capacities) ids.push_back(t.add_compute(c));
  for (std::size_t i = 1; i < ids.size(); ++i) {
    t.connect_nodes(ids[0], ids[i], 1e-4);
  }
  t.freeze();
  return t;
}

std::vector<workload::Vnf> make_vnfs(std::size_t n, double demand,
                                     double mu) {
  std::vector<workload::Vnf> vnfs(n);
  for (std::size_t f = 0; f < n; ++f) {
    vnfs[f].id = VnfId(static_cast<std::uint32_t>(f));
    vnfs[f].name = "F" + std::to_string(f);
    vnfs[f].demand_per_instance = demand;
    vnfs[f].service_rate = mu;
  }
  return vnfs;
}

StreamEvent arrive(double t, std::uint32_t id, double rate,
                   std::vector<std::uint32_t> chain, double prob = 1.0) {
  StreamEvent e;
  e.time = t;
  e.kind = StreamEventKind::kArrive;
  e.request = id;
  e.rate = rate;
  e.delivery_prob = prob;
  e.chain = std::move(chain);
  return e;
}

StreamEvent depart(double t, std::uint32_t id) {
  StreamEvent e;
  e.time = t;
  e.kind = StreamEventKind::kDepart;
  e.request = id;
  return e;
}

StreamEvent rate_change(double t, std::uint32_t id, double rate) {
  StreamEvent e;
  e.time = t;
  e.kind = StreamEventKind::kRateChange;
  e.request = id;
  e.rate = rate;
  return e;
}

TEST(ServeEngine, AdmitsArrivalAndScalesOutPerHop) {
  ServeEngine engine(make_topo({400.0, 400.0}), make_vnfs(2, 100.0, 100.0));
  const EventOutcome out = engine.on_event(arrive(0.0, 0, 50.0, {0, 1}));
  EXPECT_EQ(out.decision, Decision::kAdmitted);
  EXPECT_EQ(out.scale_outs, 2u);  // one fresh instance per hop
  const auto snap = engine.snapshot();
  ASSERT_EQ(snap.instances.size(), 2u);
  EXPECT_EQ(snap.live, std::vector<std::uint32_t>{0});
  for (const auto& inst : snap.instances) {
    EXPECT_DOUBLE_EQ(inst.raw_load, 50.0);
    EXPECT_EQ(inst.requests, std::vector<std::uint32_t>{0});
  }
}

TEST(ServeEngine, ReusesLeastLoadedInstance) {
  ServeEngine engine(make_topo({400.0}), make_vnfs(1, 100.0, 100.0));
  engine.on_event(arrive(0.0, 0, 50.0, {0}));
  const EventOutcome out = engine.on_event(arrive(1.0, 1, 30.0, {0}));
  EXPECT_EQ(out.decision, Decision::kAdmitted);
  EXPECT_EQ(out.scale_outs, 0u);  // 50 + 30 fits under 0.9 · 100
  const auto snap = engine.snapshot();
  ASSERT_EQ(snap.instances.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.instances[0].raw_load, 80.0);
}

TEST(ServeEngine, ScalesOutWhenAdmissionLimitWouldBeExceeded) {
  ServeEngine engine(make_topo({400.0}), make_vnfs(1, 100.0, 100.0));
  engine.on_event(arrive(0.0, 0, 80.0, {0}));
  // 80 + 20 = 100 > 90 = (1 − 0.1) · μ: a second instance must open.
  const EventOutcome out = engine.on_event(arrive(1.0, 1, 20.0, {0}));
  EXPECT_EQ(out.decision, Decision::kAdmitted);
  EXPECT_EQ(out.scale_outs, 1u);
  EXPECT_EQ(engine.snapshot().instances.size(), 2u);
}

TEST(ServeEngine, DrainThenRetireReclaimsCapacity) {
  // One node, room for exactly one instance.
  ServeEngine engine(make_topo({100.0}), make_vnfs(1, 100.0, 100.0));
  engine.on_event(arrive(0.0, 0, 50.0, {0}));
  ASSERT_EQ(engine.snapshot().instances.size(), 1u);
  const EventOutcome out = engine.on_event(depart(1.0, 0));
  EXPECT_EQ(out.decision, Decision::kDeparted);
  EXPECT_EQ(out.scale_ins, 1u);  // last member gone → instance retired
  EXPECT_TRUE(engine.snapshot().instances.empty());
  // The capacity is back: a new arrival can open an instance again.
  const EventOutcome again = engine.on_event(arrive(2.0, 1, 40.0, {0}));
  EXPECT_EQ(again.decision, Decision::kAdmitted);
  EXPECT_EQ(again.scale_outs, 1u);
}

TEST(ServeEngine, QueuesWhenSaturatedAndDrainsFifo) {
  ServeConfig cfg;
  cfg.queue_capacity = 2;
  ServeEngine engine(make_topo({100.0}), make_vnfs(1, 100.0, 100.0), cfg);
  engine.on_event(arrive(0.0, 0, 85.0, {0}));
  // No instance admits 85 + 30 and the node has no room for a second one.
  const EventOutcome q1 = engine.on_event(arrive(1.0, 1, 30.0, {0}));
  EXPECT_EQ(q1.decision, Decision::kQueued);
  const EventOutcome q2 = engine.on_event(arrive(2.0, 2, 20.0, {0}));
  EXPECT_EQ(q2.decision, Decision::kQueued);
  // Queue is full now: the next arrival is rejected.
  const EventOutcome rej = engine.on_event(arrive(3.0, 3, 10.0, {0}));
  EXPECT_EQ(rej.decision, Decision::kRejected);
  // Departure frees the instance; both queued requests fit (30 + 20 ≤ 90)
  // and drain in FIFO order.
  const EventOutcome dep = engine.on_event(depart(4.0, 0));
  EXPECT_EQ(dep.admitted_from_queue, 2u);
  const auto snap = engine.snapshot();
  EXPECT_TRUE(snap.queued.empty());
  EXPECT_EQ(snap.live, (std::vector<std::uint32_t>{1, 2}));
}

TEST(ServeEngine, RejectsImmediatelyWithZeroQueue) {
  ServeConfig cfg;
  cfg.queue_capacity = 0;
  ServeEngine engine(make_topo({100.0}), make_vnfs(1, 100.0, 100.0), cfg);
  engine.on_event(arrive(0.0, 0, 85.0, {0}));
  const EventOutcome out = engine.on_event(arrive(1.0, 1, 30.0, {0}));
  EXPECT_EQ(out.decision, Decision::kRejected);
  EXPECT_EQ(engine.summary().rejected, 1u);
}

TEST(ServeEngine, RateChangeUpdatesLoads) {
  ServeEngine engine(make_topo({400.0}), make_vnfs(1, 100.0, 100.0));
  engine.on_event(arrive(0.0, 0, 10.0, {0}));
  const EventOutcome out = engine.on_event(rate_change(1.0, 0, 25.0));
  EXPECT_EQ(out.decision, Decision::kRateChanged);
  EXPECT_DOUBLE_EQ(engine.snapshot().instances[0].raw_load, 25.0);
}

TEST(ServeEngine, RateChangeRelocatesOffOverloadedInstance) {
  // Room for two instances: when r1's growth overloads the shared
  // instance, it is moved to a fresh one instead of being shed.
  ServeEngine engine(make_topo({200.0}), make_vnfs(1, 100.0, 100.0));
  engine.on_event(arrive(0.0, 0, 45.0, {0}));
  engine.on_event(arrive(1.0, 1, 40.0, {0}));
  const EventOutcome out = engine.on_event(rate_change(2.0, 1, 80.0));
  EXPECT_EQ(out.decision, Decision::kRateChanged);
  EXPECT_EQ(engine.summary().shed, 0u);
  const auto snap = engine.snapshot();
  ASSERT_EQ(snap.instances.size(), 2u);
  EXPECT_EQ(engine.snapshot().live.size(), 2u);
  for (const auto& inst : snap.instances) {
    EXPECT_LE(inst.effective_load, 90.0 + 1e-9);
  }
}

TEST(ServeEngine, ShedsWhenRateChangeIsUnservable) {
  // One node, one instance max: growing past μ with nowhere to go sheds.
  ServeEngine engine(make_topo({100.0}), make_vnfs(1, 100.0, 100.0));
  engine.on_event(arrive(0.0, 0, 50.0, {0}));
  const EventOutcome out = engine.on_event(rate_change(1.0, 0, 150.0));
  EXPECT_EQ(out.decision, Decision::kShed);
  EXPECT_EQ(engine.summary().shed, 1u);
  EXPECT_TRUE(engine.snapshot().live.empty());
  EXPECT_TRUE(engine.snapshot().instances.empty());  // drained → retired
}

TEST(ServeEngine, RejectsInvalidEvents) {
  ServeEngine engine(make_topo({400.0}), make_vnfs(2, 100.0, 100.0));
  engine.on_event(arrive(1.0, 0, 50.0, {0}));
  EXPECT_THROW(engine.on_event(arrive(2.0, 0, 10.0, {1})),
               workload::TraceParseError);  // already live
  EXPECT_THROW(engine.on_event(depart(2.0, 9)), workload::TraceParseError);
  EXPECT_THROW(engine.on_event(rate_change(2.0, 9, 5.0)),
               workload::TraceParseError);
  EXPECT_THROW(engine.on_event(arrive(0.5, 1, 10.0, {0})),
               workload::TraceParseError);  // time going backwards
  EXPECT_THROW(engine.on_event(arrive(3.0, 1, 10.0, {7})),
               workload::TraceParseError);  // chain out of range
}

TEST(ServeEngine, BoundedMigrationNeverExceedsBudget) {
  workload::WorkloadConfig wcfg;
  wcfg.vnf_count = 5;
  wcfg.request_count = 30;
  Rng wrng(9);
  const workload::Workload base =
      workload::WorkloadGenerator(wcfg).generate(wrng);
  workload::EventStreamConfig scfg;
  scfg.event_count = 400;
  Rng srng(9);
  const workload::EventTrace trace =
      workload::EventStreamGenerator(base, scfg).generate(srng);

  for (const std::uint32_t budget : {1u, 3u}) {
    ServeConfig cfg;
    cfg.migration_budget = budget;
    cfg.rebalance_threshold = 0.05;  // rebalance aggressively
    ServeEngine engine(make_topo({3000.0, 3000.0, 3000.0, 3000.0}),
                       base.vnfs, cfg);
    engine.replay(trace);
    const ServeSummary s = engine.summary();
    EXPECT_LE(s.max_migrations_per_rebalance, budget);
    EXPECT_GT(s.rebalances, 0u);
    EXPECT_GT(s.admitted, 0u);
  }
}

TEST(ServeEngine, SummaryCountersAreConsistent) {
  ServeEngine engine(make_topo({400.0, 400.0}), make_vnfs(2, 100.0, 100.0));
  engine.on_event(arrive(0.0, 0, 50.0, {0, 1}));
  engine.on_event(arrive(1.0, 1, 20.0, {0}));
  engine.on_event(rate_change(2.0, 1, 30.0));
  engine.on_event(depart(3.0, 0));
  const ServeSummary s = engine.summary();
  EXPECT_EQ(s.events, 4u);
  EXPECT_EQ(s.arrivals, 2u);
  EXPECT_EQ(s.admitted, 2u);
  EXPECT_EQ(s.departures, 1u);
  EXPECT_EQ(s.rate_changes, 1u);
  EXPECT_EQ(s.live_requests, 1u);
  EXPECT_DOUBLE_EQ(s.admission_rate, 1.0);
  EXPECT_EQ(engine.log().size(), 4u);
  obs::RunReport report;
  report.sections.push_back(
      {"serve", report_section(engine, /*include_events=*/true)});
  std::ostringstream os;
  obs::write_run_report(report, os);
  const obs::JsonValue doc = obs::load_run_report(os.str());
  const obs::JsonValue* serve = doc.find("serve");
  ASSERT_NE(serve, nullptr);
  EXPECT_EQ(serve->number_or("events"), 4.0);
  const obs::JsonValue::Array& log = serve->find("events_log")->as_array();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0].string_or("decision"), "admitted");
  EXPECT_EQ(log[3].string_or("decision"), "departed");
}

TEST(ServeEngine, LiveWorkloadDensifiesIdsAndInstanceCounts) {
  ServeEngine engine(make_topo({400.0}), make_vnfs(3, 100.0, 100.0));
  engine.on_event(arrive(0.0, 5, 80.0, {2}));
  engine.on_event(arrive(1.0, 9, 20.0, {2}));  // forces a second instance
  const workload::Workload live = engine.live_workload();
  ASSERT_EQ(live.vnfs.size(), 1u);  // only VNF 2 carries traffic
  EXPECT_EQ(live.vnfs[0].instance_count, 2u);
  ASSERT_EQ(live.requests.size(), 2u);
  EXPECT_DOUBLE_EQ(live.requests[0].arrival_rate, 80.0);
  EXPECT_EQ(live.requests[0].chain, std::vector<VnfId>{VnfId(0)});
}

}  // namespace
}  // namespace nfv::serve
