#include "inputs.h"

#include <algorithm>
#include <cmath>

#include "nfv/common/rng.h"
#include "nfv/placement/problem.h"
#include "nfv/topology/builders.h"
#include "nfv/topology/io.h"
#include "nfv/workload/btrace.h"
#include "nfv/workload/generator.h"
#include "nfv/workload/io.h"
#include "report.h"

namespace perfbench {

ServeInputs make_serve_inputs(const ServeShape& shape, std::uint64_t seed) {
  ServeInputs in;
  nfv::Rng rng(seed);
  in.topology = nfv::topo::make_star(
      shape.nodes, {shape.capacity, shape.capacity}, {}, rng);
  const std::uint32_t n = shape.vnfs;
  const auto spread = [n](double lo, double hi, std::uint32_t k) {
    return n < 2 ? lo : lo + (hi - lo) * k / (n - 1);
  };
  for (std::uint32_t f = 0; f < n; ++f) {
    nfv::workload::Vnf vnf;
    vnf.id = nfv::VnfId(f);
    vnf.name = "VNF-" + std::to_string(f);
    vnf.demand_per_instance = spread(shape.demand_min, shape.demand_max, f);
    // A stride coprime to n decorrelates μ_f from D_f.
    vnf.service_rate = spread(shape.service_rate_min, shape.service_rate_max,
                              (5 * f) % n);
    in.base.vnfs.push_back(std::move(vnf));
  }
  std::uint32_t cursor = 0;
  for (const std::uint32_t len : shape.template_lengths) {
    nfv::workload::Request r;
    r.id = nfv::RequestId(static_cast<std::uint32_t>(in.base.requests.size()));
    std::vector<std::uint32_t> chain;
    for (std::uint32_t j = 0; j < len; ++j) chain.push_back(cursor++ % n);
    std::sort(chain.begin(), chain.end());
    for (const std::uint32_t f : chain) r.chain.push_back(nfv::VnfId(f));
    r.arrival_rate = 1.0;
    r.delivery_prob = shape.stream.delivery_prob;
    in.base.requests.push_back(std::move(r));
  }

  nfv::workload::EventStreamConfig scfg = shape.stream;
  scfg.event_count = shape.warmup_events + shape.segment_events;
  nfv::workload::EventTrace all =
      nfv::workload::EventStreamGenerator(in.base, scfg).generate(rng);

  // Node churn is merged in after the request events, so the stream can be
  // longer than event_count; the segment keeps everything past the prefix.
  const auto split = static_cast<std::ptrdiff_t>(shape.warmup_events);
  in.warmup.vnf_count = all.vnf_count;
  in.warmup.events.assign(std::make_move_iterator(all.events.begin()),
                          std::make_move_iterator(all.events.begin() + split));
  nfv::workload::EventTrace rest;
  rest.vnf_count = all.vnf_count;
  rest.events.assign(std::make_move_iterator(all.events.begin() + split),
                     std::make_move_iterator(all.events.end()));
  in.segment_events = rest.events.size();
  in.segment = nfv::workload::save_binary_trace_string(rest);

  std::uint64_t h = fnv1a(nfv::topo::save_topology_string(in.topology));
  h = fnv1a(nfv::workload::save_workload_string(in.base), h);
  h = fnv1a(nfv::workload::save_binary_trace_string(in.warmup), h);
  in.digest = fnv1a(in.segment, h);
  return in;
}

OfflineInputs make_offline_inputs(const OfflineShape& shape,
                                  std::uint64_t seed) {
  OfflineInputs in;
  nfv::Rng rng(seed);
  std::uint64_t h = fnv1a("offline");
  const auto lerp = [](double lo, double hi, double s) {
    return static_cast<std::uint32_t>(std::lround(lo + (hi - lo) * s));
  };
  for (std::size_t i = 0; i < shape.instances; ++i) {
    const double s =
        (static_cast<double>(i) + 0.5) / static_cast<double>(shape.instances);
    nfv::core::SystemModel model;
    nfv::workload::WorkloadConfig wcfg;
    wcfg.vnf_count = lerp(shape.vnfs_min, shape.vnfs_max, s);
    wcfg.request_count = lerp(shape.requests_min, shape.requests_max, s);
    // Draw again while the instance fails placement's necessary
    // feasibility check (a VNF larger than every node, or more demand than
    // capacity): a property of the inputs alone, so no solve can fail.
    do {
      model.topology = nfv::topo::make_star(
          lerp(static_cast<double>(shape.nodes_min),
               static_cast<double>(shape.nodes_max), s),
          {1000.0, 5000.0}, {}, rng);
      model.workload = nfv::workload::WorkloadGenerator(wcfg).generate(rng);
    } while (nfv::placement::make_problem(model.topology, model.workload)
                 .obviously_infeasible());
    h = fnv1a(nfv::topo::save_topology_string(model.topology), h);
    h = fnv1a(nfv::workload::save_workload_string(model.workload), h);
    in.models.push_back(std::move(model));
    in.solve_seeds.push_back(rng.next());
  }
  in.digest = h;
  return in;
}

}  // namespace perfbench
