// CABP — Chain-Affinity Best-fit Placement (an extension beyond the
// paper).  BFDSU optimizes only Objective 1 (consolidation); the link
// term of Eq. 16 then depends on luck in how chains landed.  CABP keeps
// BFDSU's skeleton (decreasing demands, used-nodes-first, weighted random
// draw, multi-start) but multiplies each candidate node's weight by a
// chain-affinity factor: nodes already hosting this VNF's chain
// neighbours are preferred, so chains co-locate as they are placed
// (the paper's Fig. 1 inter-server → intra-server conversion, performed
// during placement rather than as an afterthought).
#pragma once

#include <cstdint>

#include "nfv/placement/algorithm.h"

namespace nfv::placement {

/// Chain-affinity best-fit placement (BFDSU x chain co-location).
class CabpPlacement final : public PlacementAlgorithm {
 public:
  struct Options {
    std::uint32_t stall_limit = 10;
    std::uint32_t max_passes = 60;
    /// Strength of the affinity factor: candidate weight is multiplied by
    /// (1 + affinity_bias · A(v, f)) where A(v, f) is the
    /// frequency-weighted fraction of f's chain neighbours already on v.
    double affinity_bias = 8.0;
  };

  CabpPlacement() = default;
  explicit CabpPlacement(Options options);

  [[nodiscard]] Placement place(const PlacementProblem& problem,
                                Rng& rng) const override;
  [[nodiscard]] std::string_view name() const override { return "CABP"; }
  [[nodiscard]] bool reads_chains() const override { return true; }

  [[nodiscard]] const Options& options() const { return options_; }

 private:
  [[nodiscard]] Placement single_pass(const PlacementProblem& problem,
                                      Rng& rng) const;

  Options options_{};
};

}  // namespace nfv::placement
