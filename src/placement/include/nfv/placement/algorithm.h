// Placement algorithm interface and the concrete algorithms of Sec. IV-A /
// Sec. V-B:
//   * BFDSU  — the paper's Algorithm 1 (priority-driven weighted best fit),
//   * FFD    — First Fit Decreasing baseline,
//   * NAH    — Node Assignment Heuristic of Xia et al. [12],
// plus classical fits (BFD / WFD) and an exact branch-and-bound
// for small instances (used to validate Theorem 2's factor-2 bound).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "nfv/common/rng.h"
#include "nfv/placement/problem.h"

namespace nfv::placement {

/// Abstract placement algorithm.  Implementations are stateless and
/// thread-compatible; all randomness flows through the Rng argument.
class PlacementAlgorithm {
 public:
  virtual ~PlacementAlgorithm() = default;

  /// Computes a placement.  Returns feasible=false (with an empty/partial
  /// assignment) when the algorithm could not fit every VNF.
  [[nodiscard]] virtual Placement place(const PlacementProblem& problem,
                                        Rng& rng) const = 0;

  /// Stable display name ("BFDSU", "FFD", ...).
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// True when place() reads PlacementProblem::chains / chain_weights;
  /// callers build them (add_chains) only for such algorithms.
  [[nodiscard]] virtual bool reads_chains() const { return false; }
};

/// First Fit Decreasing: VNFs by descending demand, each to the
/// lowest-indexed node with room.  Single pass, iterations == 1.
class FfdPlacement final : public PlacementAlgorithm {
 public:
  [[nodiscard]] Placement place(const PlacementProblem& problem,
                                Rng& rng) const override;
  [[nodiscard]] std::string_view name() const override { return "FFD"; }
};

/// Best Fit Decreasing (deterministic): each VNF to the feasible node with
/// minimal remaining capacity — the non-randomized core of BFDSU, used as
/// an ablation.
class BfdPlacement final : public PlacementAlgorithm {
 public:
  [[nodiscard]] Placement place(const PlacementProblem& problem,
                                Rng& rng) const override;
  [[nodiscard]] std::string_view name() const override { return "BFD"; }
};

/// Worst Fit Decreasing: each VNF to the feasible node with maximal
/// remaining capacity (the "spread" policy NAH approximates).
class WfdPlacement final : public PlacementAlgorithm {
 public:
  [[nodiscard]] Placement place(const PlacementProblem& problem,
                                Rng& rng) const override;
  [[nodiscard]] std::string_view name() const override { return "WFD"; }
};

/// Node Assignment Heuristic (Xia et al. [12], as described in Sec. V-B):
/// for each chain, place its most resource-demanding unplaced VNF at the
/// node with the largest remaining capacity, then co-locate as many of the
/// chain's remaining VNFs there as fit; spill the rest to the next
/// largest-capacity node, and so on.  Keeps no used/spare distinction.
/// iterations counts node-selection rounds (initial picks + spills).
class NahPlacement final : public PlacementAlgorithm {
 public:
  [[nodiscard]] Placement place(const PlacementProblem& problem,
                                Rng& rng) const override;
  [[nodiscard]] std::string_view name() const override { return "NAH"; }
  [[nodiscard]] bool reads_chains() const override { return true; }
};

/// BFDSU (Algorithm 1): Best Fit Decreasing using Smallest Used nodes with
/// the largest probability.
///
/// One pass: VNFs by descending total demand; candidate nodes are the
/// already-used ones with sufficient remaining capacity (falling back to
/// spare nodes), and the target is drawn with probability proportional to
/// 1/(1 + RST(v) − D_f·M_f) — i.e. tightest fits are likeliest but not
/// certain, which lets restarts escape infeasible corners ("Go back to
/// Begin", line 9).
///
/// Runs as a multi-start: passes repeat until `stall_limit` consecutive
/// passes fail to reduce the number of used nodes (or `max_passes` is hit),
/// and the best feasible pass wins.  `iterations` reports the number of
/// passes, the quantity plotted in Fig. 10.
class BfdsuPlacement final : public PlacementAlgorithm {
 public:
  struct Options {
    std::uint32_t stall_limit = 10;  ///< stop after this many non-improving passes
    std::uint32_t max_passes = 60;   ///< hard cap incl. infeasible restarts
  };

  BfdsuPlacement() = default;
  explicit BfdsuPlacement(Options options);

  [[nodiscard]] Placement place(const PlacementProblem& problem,
                                Rng& rng) const override;
  [[nodiscard]] std::string_view name() const override { return "BFDSU"; }

  [[nodiscard]] const Options& options() const { return options_; }

 private:
  /// One randomized pass of Algorithm 1; feasible=false when some VNF had
  /// no candidate node.
  [[nodiscard]] Placement single_pass(const PlacementProblem& problem,
                                      Rng& rng) const;

  Options options_{};
};

/// Exact branch-and-bound minimizing the number of used nodes.  Exponential;
/// intended for |F| ≤ ~16 (validation of Theorem 2 and optimality gaps).
class ExactPlacement final : public PlacementAlgorithm {
 public:
  explicit ExactPlacement(std::uint64_t max_expansions = 50'000'000);

  [[nodiscard]] Placement place(const PlacementProblem& problem,
                                Rng& rng) const override;
  [[nodiscard]] std::string_view name() const override { return "Exact"; }

 private:
  std::uint64_t max_expansions_;
};

/// Returns the algorithm instance registered under `name`, one of
/// placement_algorithm_names(); nullptr if unknown — callers surface that
/// as a usage error, never fall back.
[[nodiscard]] std::unique_ptr<PlacementAlgorithm> make_placement_algorithm(
    std::string_view name);

/// All registered algorithm names.
[[nodiscard]] std::vector<std::string> placement_algorithm_names();

}  // namespace nfv::placement
