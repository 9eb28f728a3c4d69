// Eq. 16 bit-identity of the per-event latency step (DESIGN.md §10.3).
// The engine evaluates Eq. 16 over the live set into a reused buffer,
// counts distinct nodes per request without sorting, and takes the p99
// with nth_element.  Replaying a crowd-shaped and a churn-shaped trace,
// every event's mean_predicted_latency and p99_predicted_latency — and
// summary()'s — must equal, bit for bit, the plain reference: Eq. 16
// recomputed from snapshot() with a sorted node list per request, summed
// in ascending request-id order, and the p99 read off a fully sorted copy.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "nfv/common/rng.h"
#include "nfv/serve/engine.h"
#include "nfv/topology/builders.h"
#include "nfv/workload/event_stream.h"

namespace nfv::serve {
namespace {

struct Scenario {
  topo::Topology topology;
  workload::Workload base;
  workload::EventTrace trace;
  ServeConfig config;
};

/// Star topology and a VNF catalog in the perfbench serve shape: μ_f and
/// D_f spread over the VNFs, chain templates of the given lengths cycling
/// through the VNF order.
Scenario make_scenario(std::size_t nodes, double capacity, std::uint32_t vnfs,
                       const std::vector<std::uint32_t>& template_lengths,
                       const workload::EventStreamConfig& stream,
                       std::uint64_t seed) {
  Scenario sc;
  Rng rng(seed);
  sc.topology = topo::make_star(nodes, {capacity, capacity}, {}, rng);
  for (std::uint32_t f = 0; f < vnfs; ++f) {
    workload::Vnf vnf;
    vnf.id = VnfId(f);
    vnf.name = "VNF-" + std::to_string(f);
    vnf.demand_per_instance = 40.0 + 160.0 * f / (vnfs - 1);
    vnf.service_rate = 300.0 + 300.0 * ((5 * f) % vnfs) / (vnfs - 1);
    sc.base.vnfs.push_back(vnf);
  }
  std::uint32_t cursor = 0;
  for (const std::uint32_t len : template_lengths) {
    workload::Request r;
    r.id = RequestId(static_cast<std::uint32_t>(sc.base.requests.size()));
    std::vector<std::uint32_t> chain;
    for (std::uint32_t j = 0; j < len; ++j) chain.push_back(cursor++ % vnfs);
    std::sort(chain.begin(), chain.end());
    for (const std::uint32_t f : chain) r.chain.push_back(VnfId(f));
    r.arrival_rate = 1.0;
    r.delivery_prob = stream.delivery_prob;
    sc.base.requests.push_back(r);
  }
  sc.trace = workload::EventStreamGenerator(sc.base, stream).generate(rng);
  return sc;
}

/// Eq. 16 per live request from snapshot() and each request's chain, with
/// the distinct nodes counted off a sorted, de-duplicated node list.
std::vector<double> recompute_eq16(
    const ServeEngine& engine,
    const std::map<std::uint32_t, std::vector<std::uint32_t>>& chains,
    const std::vector<workload::Vnf>& vnfs) {
  const ServeEngine::Snapshot snap = engine.snapshot();
  std::unordered_map<std::uint64_t, std::size_t> instance_of;
  for (std::size_t i = 0; i < snap.instances.size(); ++i) {
    for (const std::uint32_t id : snap.instances[i].requests) {
      instance_of[(std::uint64_t{snap.instances[i].vnf} << 32) | id] = i;
    }
  }
  const double link = engine.config().link_latency.value_or(
      engine.topology().mean_link_latency());
  std::vector<double> out;
  for (const std::uint32_t id : snap.live) {
    double total = 0.0;
    std::vector<std::uint32_t> nodes;
    for (const std::uint32_t f : chains.at(id)) {
      const auto& inst =
          snap.instances[instance_of.at((std::uint64_t{f} << 32) | id)];
      const double mu = vnfs[f].service_rate;
      if (inst.raw_load > 0.0) {
        const double slack = std::max(mu - inst.effective_load, 1e-9 * mu);
        total += inst.effective_load / (slack * inst.raw_load);
      } else {
        total += 1.0 / mu;
      }
      nodes.push_back(inst.node);
    }
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    if (!nodes.empty()) {
      total += static_cast<double>(nodes.size() - 1) * link;
    }
    out.push_back(total);
  }
  return out;
}

struct Reference {
  double mean = 0.0;
  double p99 = 0.0;
};

/// Mean summed in order and p99 off a fully sorted copy.
Reference reference(const std::vector<double>& lat) {
  Reference ref;
  if (lat.empty()) return ref;
  double sum = 0.0;
  for (const double x : lat) sum += x;
  ref.mean = sum / static_cast<double>(lat.size());
  std::vector<double> sorted = lat;
  std::sort(sorted.begin(), sorted.end());
  const auto idx = static_cast<std::size_t>(
                       std::ceil(0.99 * static_cast<double>(sorted.size()))) -
                   1;
  ref.p99 = sorted[idx];
  return ref;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::vector<std::uint64_t> bits(const std::vector<double>& xs) {
  std::vector<std::uint64_t> out;
  for (const double x : xs) out.push_back(bits(x));
  return out;
}

/// Replays the scenario event by event, checking every outcome and
/// summary() against the reference; reports the final summary and the
/// largest live population seen.
void replay_and_check(const Scenario& sc, ServeSummary& final_summary,
                      std::size_t& max_live) {
  ServeEngine engine(sc.topology, sc.base.vnfs, sc.config);
  std::map<std::uint32_t, std::vector<std::uint32_t>> chains;
  max_live = 0;
  for (std::size_t i = 0; i < sc.trace.events.size(); ++i) {
    const workload::StreamEvent& ev = sc.trace.events[i];
    if (ev.kind == workload::StreamEventKind::kArrive) {
      chains[ev.request] = ev.chain;
    }
    const EventOutcome out = engine.on_event(ev);
    const std::vector<double> lat = engine.predicted_latencies();
    ASSERT_EQ(bits(lat), bits(recompute_eq16(engine, chains, sc.base.vnfs)))
        << "event " << i;
    const Reference ref = reference(lat);
    ASSERT_EQ(bits(out.mean_predicted_latency), bits(ref.mean))
        << "event " << i;
    ASSERT_EQ(bits(out.p99_predicted_latency), bits(ref.p99)) << "event " << i;
    const ServeSummary s = engine.summary();
    ASSERT_EQ(bits(s.mean_predicted_latency), bits(ref.mean)) << "event " << i;
    ASSERT_EQ(bits(s.p99_predicted_latency), bits(ref.p99)) << "event " << i;
    max_live = std::max(max_live, lat.size());
  }
  final_summary = engine.summary();
}

TEST(Eq16Identity, CrowdShapedTraceMatchesSortedReferenceBitForBit) {
  workload::EventStreamConfig stream;
  stream.event_count = 1500;
  stream.target_population = 400;
  const Scenario sc = make_scenario(16, 5000.0, 12,
                                    {2, 3, 4, 5, 6, 4, 3, 5, 2, 6, 4, 4},
                                    stream, 11);
  ServeSummary s;
  std::size_t max_live = 0;
  ASSERT_NO_FATAL_FAILURE(replay_and_check(sc, s, max_live));
  EXPECT_GE(max_live, 300u);  // crowd-shaped: hundreds of live requests
  EXPECT_GT(s.rebalances, 0u);
}

TEST(Eq16Identity, ChurnShapedTraceMatchesSortedReferenceBitForBit) {
  workload::EventStreamConfig stream;
  stream.event_count = 2500;
  stream.target_population = 60;
  stream.rate_sigma_log = 1.0;
  stream.burst_every = 4.0;
  stream.burst_length = 1.5;
  stream.burst_factor = 3.0;
  stream.churn_node_count = 3;
  stream.node_mtbf = 4.0;
  stream.node_mttr = 1.0;
  Scenario sc = make_scenario(5, 700.0, 8, {2, 3, 4, 3, 2, 3, 4, 3}, stream,
                              23);
  sc.config.queue_capacity = 8;
  sc.config.overload_window = 16;
  sc.config.autoscale.policy = ScalePolicy::kReactive;
  ServeSummary s;
  std::size_t max_live = 0;
  ASSERT_NO_FATAL_FAILURE(replay_and_check(sc, s, max_live));
  // The trace really drove the fault ladder, autoscaling and degradation.
  EXPECT_GT(s.node_downs, 0u);
  EXPECT_GT(s.evacuated_requests, 0u);
  EXPECT_GT(s.autoscale_decisions, 0u);
  EXPECT_GT(s.autoscale_scale_outs + s.autoscale_scale_ins, 0u);
  EXPECT_GT(s.degradations, 0u);
  EXPECT_GT(s.rebalances, 0u);
}

}  // namespace
}  // namespace nfv::serve
