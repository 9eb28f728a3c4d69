// Particle-swarm placement search (ROADMAP O5, DESIGN.md §17).
//
// A particle encodes a continuous node preference per VNF; decoding walks
// the VNFs in descending demand order, takes the preferred node when it
// fits and repairs via best fit (tightest feasible node) otherwise.  The
// swarm is fixed-size and every particle owns an RNG stream forked from
// the parent up-front in index order, so a run is bit-identical for any
// thread count and any racing arrangement.
#pragma once

#include <cstdint>

#include "nfv/placement/algorithm.h"

namespace nfv::placement {

/// Seeded PSO over node-preference vectors with best-fit feasibility
/// repair.  `iterations` of the returned Placement counts decode
/// evaluations (swarm × (1 + sweeps)), the work unit the portfolio
/// budget is charged in.
class PsoPlacement final : public PlacementAlgorithm {
 public:
  /// Fixed effort: every run makes exactly `iterations` sweeps, so the
  /// result depends only on the options, the problem and the seed.
  struct Options {
    std::uint32_t swarm = 16;       ///< particles (fixed; streams fork 0..swarm-1)
    std::uint32_t iterations = 48;  ///< velocity/position sweeps after init
    double inertia = 0.72;          ///< velocity damping w
    double cognitive = 1.49;        ///< personal-best pull c1
    double social = 1.49;           ///< global-best pull c2
  };

  PsoPlacement() = default;
  explicit PsoPlacement(Options options);

  [[nodiscard]] Placement place(const PlacementProblem& problem,
                                Rng& rng) const override;
  [[nodiscard]] std::string_view name() const override { return "PSO"; }

  [[nodiscard]] const Options& options() const { return options_; }

 private:
  Options options_{};
};

}  // namespace nfv::placement
