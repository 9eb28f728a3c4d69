// BFDSU — Algorithm 1 of the paper ("Best Fit Decreasing using Smallest
// Used nodes with the largest probability").
#include <algorithm>
#include <vector>

#include "nfv/obs/metrics.h"
#include "nfv/obs/trace.h"
#include "nfv/placement/algorithm.h"
#include "nfv/placement/metrics.h"
#include "fit_util.h"

namespace nfv::placement {

BfdsuPlacement::BfdsuPlacement(Options options) : options_(options) {
  NFV_REQUIRE(options_.stall_limit >= 1);
  NFV_REQUIRE(options_.max_passes >= 1);
}

Placement BfdsuPlacement::single_pass(const PlacementProblem& problem,
                                      Rng& rng) const {
  Placement result;
  result.assignment.resize(problem.vnf_count());
  std::vector<double> residual = problem.capacities;

  // Algorithm 1 keeps Used_list / Spare_list explicitly; maintaining them
  // incrementally means each VNF scans only the used nodes (typically a
  // small prefix of V) and touches the spare list just on the fallback,
  // instead of two full |V| sweeps per VNF.  spare_nodes is unordered
  // (swap-remove on promotion); determinism comes from the candidate sort
  // below, which orders by (residual, node id) regardless of scan order.
  std::vector<std::uint32_t> used_nodes;
  std::vector<std::uint32_t> spare_nodes(problem.node_count());
  for (std::uint32_t v = 0; v < problem.node_count(); ++v) spare_nodes[v] = v;

  // Scratch reused across VNFs: candidate node set V_rst(f) and weights.
  std::vector<std::uint32_t> candidates;
  std::vector<double> weights;

  for (const std::uint32_t f : detail::demand_order_desc(problem)) {
    const double demand = problem.demands[f];

    // Lines 4-8: search Used_list first, fall back to Spare_list.
    candidates.clear();
    for (const std::uint32_t v : used_nodes) {
      if (detail::fits(residual[v], demand)) candidates.push_back(v);
    }
    bool from_spare = false;
    if (candidates.empty()) {
      from_spare = true;
      for (const std::uint32_t v : spare_nodes) {
        if (detail::fits(residual[v], demand)) candidates.push_back(v);
      }
    }
    if (candidates.empty()) return result;  // line 9: go back to Begin

    // Lines 12-16: weight each candidate by the reciprocal of its slack
    // after placing f; the +1 keeps the weight finite on exact fits.
    std::sort(candidates.begin(), candidates.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                if (residual[a] != residual[b]) {
                  return residual[a] < residual[b];
                }
                return a < b;
              });
    weights.clear();
    weights.reserve(candidates.size());
    for (const std::uint32_t v : candidates) {
      weights.push_back(1.0 / (1.0 + residual[v] - demand));
    }
    const std::uint32_t chosen = candidates[rng.weighted_index(weights)];
    detail::assign(result, residual, f, chosen, demand);
    if (from_spare) {
      const auto it =
          std::find(spare_nodes.begin(), spare_nodes.end(), chosen);
      *it = spare_nodes.back();
      spare_nodes.pop_back();
      used_nodes.push_back(chosen);
    }
  }
  result.feasible = true;
  return result;
}

Placement BfdsuPlacement::place(const PlacementProblem& problem,
                                Rng& rng) const {
  const obs::ScopedSpan span("placement.bfdsu.place");
  problem.validate();
  // Multi-start: keep the pass using the fewest nodes (ties broken by
  // higher mean utilization of used nodes); stop after stall_limit passes
  // without improvement.  Infeasible passes are the paper's "go back to
  // Begin" restarts and count toward iterations but not toward stalls
  // until a feasible placement exists.
  //
  // Pass i draws from rng.fork(i), forked up-front in index order, so the
  // caller's rng advances by max_passes forks however early the stall
  // rule stops the loop.
  std::vector<Rng> pass_rng;
  pass_rng.reserve(options_.max_passes);
  for (std::uint32_t i = 0; i < options_.max_passes; ++i) {
    pass_rng.push_back(rng.fork(i));
  }

  Placement best;
  double best_util = -1.0;
  std::size_t best_nodes = problem.node_count() + 1;
  std::uint32_t stall = 0;
  std::uint64_t passes = 0;
  std::uint64_t restarts = 0;
  for (std::uint32_t i = 0;
       i < options_.max_passes && stall < options_.stall_limit; ++i) {
    ++passes;
    Placement pass = single_pass(problem, pass_rng[i]);
    if (!pass.feasible) {
      ++restarts;
      if (best.feasible) ++stall;
      continue;
    }
    const PlacementMetrics metrics = evaluate(problem, pass);
    if (metrics.nodes_in_service < best_nodes ||
        (metrics.nodes_in_service == best_nodes &&
         metrics.avg_utilization_of_used > best_util)) {
      best = std::move(pass);
      best_nodes = metrics.nodes_in_service;
      best_util = metrics.avg_utilization_of_used;
      stall = 0;
    } else {
      ++stall;
    }
  }
  best.iterations = passes;
  obs::count("placement.bfdsu.runs");
  obs::count("placement.bfdsu.passes", passes);
  obs::count("placement.bfdsu.restarts", restarts);
  obs::observe("placement.bfdsu.passes_per_run",
               static_cast<double>(passes), 0.0,
               static_cast<double>(options_.max_passes) + 1.0, 32);
  if (!best.feasible) {
    obs::count("placement.bfdsu.infeasible");
    best.assignment.assign(problem.vnf_count(), std::nullopt);
  }
  return best;
}

}  // namespace nfv::placement
