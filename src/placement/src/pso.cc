#include "nfv/placement/pso.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "nfv/common/error.h"
#include "nfv/obs/metrics.h"
#include "fit_util.h"

namespace nfv::placement {

namespace {

/// Lexicographic particle quality, lower is better: fewest unplaced VNFs,
/// then fewest nodes in service, then the most concentrated load (maximal
/// Σ load²_v, i.e. the tightest packing of whatever fits).
struct Fitness {
  std::uint32_t unplaced = 0xffffffffu;
  std::uint32_t nodes_used = 0xffffffffu;
  double neg_concentration = 0.0;  ///< −Σ load²_v

  [[nodiscard]] bool better_than(const Fitness& other) const {
    if (unplaced != other.unplaced) return unplaced < other.unplaced;
    if (nodes_used != other.nodes_used) return nodes_used < other.nodes_used;
    return neg_concentration < other.neg_concentration;
  }
};

/// Decodes a preference vector into a placement: preferred node first,
/// best-fit (tightest feasible node, lowest index on ties) as repair.
Fitness decode(const PlacementProblem& problem,
               const std::vector<std::uint32_t>& order,
               const std::vector<double>& position, Placement& out,
               std::vector<double>& residual) {
  const std::size_t nodes = problem.node_count();
  residual = problem.capacities;
  out.assignment.assign(problem.vnf_count(), std::nullopt);
  Fitness fit;
  fit.unplaced = 0;
  for (const std::uint32_t f : order) {
    const double demand = problem.demands[f];
    const double clamped = std::clamp(
        position[f], 0.0, static_cast<double>(nodes) - 1.0);
    const auto preferred = static_cast<std::uint32_t>(clamped);
    std::uint32_t chosen = 0xffffffffu;
    if (detail::fits(residual[preferred], demand)) {
      chosen = preferred;
    } else {
      double best_after = 0.0;
      for (std::uint32_t v = 0; v < nodes; ++v) {
        if (!detail::fits(residual[v], demand)) continue;
        const double after = residual[v] - demand;
        if (chosen == 0xffffffffu || after < best_after) {
          chosen = v;
          best_after = after;
        }
      }
    }
    if (chosen == 0xffffffffu) {
      ++fit.unplaced;
      continue;
    }
    detail::assign(out, residual, f, chosen, demand);
  }
  out.feasible = fit.unplaced == 0;
  fit.nodes_used = 0;
  double concentration = 0.0;
  for (std::size_t v = 0; v < nodes; ++v) {
    const double load = problem.capacities[v] - residual[v];
    if (load > 1e-9) {
      ++fit.nodes_used;
      concentration += load * load;
    }
  }
  fit.neg_concentration = -concentration;
  return fit;
}

}  // namespace

PsoPlacement::PsoPlacement(Options options) : options_(options) {
  NFV_REQUIRE(options_.swarm >= 1);
  NFV_REQUIRE(options_.iterations >= 1);
}

Placement PsoPlacement::place(const PlacementProblem& problem,
                              Rng& rng) const {
  problem.validate();
  const std::size_t vnfs = problem.vnf_count();
  const auto nodes = static_cast<double>(problem.node_count());
  const std::size_t swarm = options_.swarm;
  const std::vector<std::uint32_t> order = detail::demand_order_desc(problem);

  // Per-particle streams fork serially in index order before any particle
  // moves, so particle i's randomness is a pure function of (seed, i).
  std::vector<Rng> streams;
  streams.reserve(swarm);
  for (std::size_t i = 0; i < swarm; ++i) streams.push_back(rng.fork(i));

  struct Particle {
    std::vector<double> position;
    std::vector<double> velocity;
    std::vector<double> best_position;
    Fitness best_fitness;
  };
  std::vector<Particle> particles(swarm);
  std::vector<double> residual;
  Placement scratch;
  Placement global_best;
  Fitness global_fitness;
  std::size_t global_index = 0;
  std::uint64_t evaluations = 0;

  for (std::size_t i = 0; i < swarm; ++i) {
    Particle& p = particles[i];
    p.position.resize(vnfs);
    p.velocity.resize(vnfs);
    for (std::size_t f = 0; f < vnfs; ++f) {
      p.position[f] = streams[i].uniform(0.0, nodes);
      p.velocity[f] = streams[i].uniform(-0.1, 0.1) * nodes;
    }
    const Fitness fit = decode(problem, order, p.position, scratch, residual);
    ++evaluations;
    p.best_position = p.position;
    p.best_fitness = fit;
    if (i == 0 || fit.better_than(global_fitness)) {
      global_fitness = fit;
      global_best = scratch;
      global_index = i;
    }
  }

  for (std::uint32_t it = 0; it < options_.iterations; ++it) {
    // Synchronous PSO: every particle moves against the sweep-entry global
    // best, then the global best updates scanning particles in index
    // order — a total, deterministic order of updates.
    const std::vector<double>& gbest =
        particles[global_index].best_position;
    for (std::size_t i = 0; i < swarm; ++i) {
      Particle& p = particles[i];
      for (std::size_t f = 0; f < vnfs; ++f) {
        const double r1 = streams[i].uniform();
        const double r2 = streams[i].uniform();
        p.velocity[f] = options_.inertia * p.velocity[f] +
                        options_.cognitive * r1 *
                            (p.best_position[f] - p.position[f]) +
                        options_.social * r2 * (gbest[f] - p.position[f]);
        p.velocity[f] = std::clamp(p.velocity[f], -nodes, nodes);
        p.position[f] =
            std::clamp(p.position[f] + p.velocity[f], 0.0, nodes);
      }
    }
    for (std::size_t i = 0; i < swarm; ++i) {
      Particle& p = particles[i];
      const Fitness fit =
          decode(problem, order, p.position, scratch, residual);
      ++evaluations;
      if (fit.better_than(p.best_fitness)) {
        p.best_fitness = fit;
        p.best_position = p.position;
      }
      if (fit.better_than(global_fitness)) {
        global_fitness = fit;
        global_best = scratch;
        global_index = i;
      }
    }
  }

  obs::count("placement.pso.evaluations", evaluations);
  global_best.iterations = evaluations;
  return global_best;
}

}  // namespace nfv::placement
