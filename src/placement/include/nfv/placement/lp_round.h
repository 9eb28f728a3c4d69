// LP-relaxation placement with deterministic rounding (ROADMAP O5,
// DESIGN.md §17).
//
// The fractional placement LP gives each VNF a distribution x_{f,v} over
// nodes (Σ_v x_{f,v} = 1, x ≥ 0), solved dependency-free by projected
// subgradient descent on a concentration objective with a growing capacity
// penalty.  Every row starts uniform and the per-node subgradient has no f
// term, so the rows never differ: the solver keeps one shared node
// distribution x_v and projects it once per step.  Rounding is a
// mass-ranked first fit: nodes ranked by descending x_v (lowest index on
// ties), VNFs in descending demand order each take the first ranked node
// that still fits, so later, smaller VNFs fill in where the larger ones
// left room.
#pragma once

#include <cstdint>

#include "nfv/placement/algorithm.h"

namespace nfv::placement {

/// Projected-subgradient solver for the fractional placement LP plus
/// mass-ranked first-fit rounding.  Fully deterministic — the Rng argument is
/// never drawn from.  `iterations` of the returned Placement counts
/// subgradient steps, the work unit the portfolio budget is charged in.
class LpRoundPlacement final : public PlacementAlgorithm {
 public:
  /// Fixed effort: every run takes exactly `iterations` steps.
  struct Options {
    std::uint32_t iterations = 240;  ///< projected-subgradient steps
    double step = 0.5;               ///< base step size η (decays as η/√t)
    double penalty = 8.0;            ///< final capacity-overload weight β
  };

  LpRoundPlacement() = default;
  explicit LpRoundPlacement(Options options);

  [[nodiscard]] Placement place(const PlacementProblem& problem,
                                Rng& rng) const override;
  [[nodiscard]] std::string_view name() const override { return "LP"; }

  [[nodiscard]] const Options& options() const { return options_; }

 private:
  Options options_{};
};

}  // namespace nfv::placement
