// The VNF chain placement (VNF-CP) problem of Sec. III-C / IV-A.
//
// Inputs: node capacities A_v and per-VNF total demands D_f·M_f (each VNF's
// instances are co-located, Eq. 2).  Chains are carried along because the
// NAH baseline [12] places chain-by-chain; pure bin-packing algorithms
// ignore them, so callers that run only those skip the chain dedup.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "nfv/common/ids.h"
#include "nfv/topology/topology.h"
#include "nfv/workload/vnf.h"

namespace nfv::placement {

/// A placement instance: |V| capacities, |F| demands, and the distinct VNF
/// chains occurring in the request set.
struct PlacementProblem {
  std::vector<double> capacities;  ///< A_v, indexed by NodeId
  std::vector<double> demands;     ///< D_f · M_f, indexed by VnfId
  /// Distinct chains (each a sequence of VNF indices), most frequent first;
  /// used by chain-aware algorithms (NAH, CABP) and filled only when one of
  /// them will run (PlacementAlgorithm::reads_chains()).
  std::vector<std::vector<std::uint32_t>> chains;
  /// Optional per-chain weights (request multiplicity); either empty
  /// (all chains weigh 1) or the same size as `chains`.
  std::vector<double> chain_weights;

  [[nodiscard]] std::size_t node_count() const { return capacities.size(); }
  [[nodiscard]] std::size_t vnf_count() const { return demands.size(); }

  [[nodiscard]] double total_capacity() const;
  [[nodiscard]] double total_demand() const;

  /// Quick necessary feasibility conditions: every demand fits in some node
  /// and total demand ≤ total capacity.
  [[nodiscard]] bool obviously_infeasible() const;

  /// Validates invariants (positive capacities/demands, chain indices in
  /// range); throws std::invalid_argument on violation.
  void validate() const;
};

/// Builds a PlacementProblem's capacities and demands; chains stay empty.
[[nodiscard]] PlacementProblem make_packing_problem(
    const topo::Topology& topology, const workload::Workload& workload);

/// Fills `problem`'s chains and chain weights: the workload's chains
/// deduplicated across requests and ordered by descending frequency.
void add_chains(PlacementProblem& problem, const workload::Workload& workload);

/// make_packing_problem() plus add_chains().
[[nodiscard]] PlacementProblem make_problem(const topo::Topology& topology,
                                            const workload::Workload& workload);

/// A placement: node per VNF (nullopt = unplaced / infeasible run).
struct Placement {
  std::vector<std::optional<NodeId>> assignment;  ///< indexed by VnfId
  bool feasible = false;
  /// Algorithm-reported iteration count (Fig. 10's "execution cost"):
  /// passes over the VNF list for multi-start algorithms, node-scan rounds
  /// for chain-based ones; exactly 1 for single-pass deterministic fits.
  std::uint64_t iterations = 0;

  /// x_v^f of Table II.
  [[nodiscard]] bool places(VnfId f, NodeId v) const {
    return f.index() < assignment.size() && assignment[f.index()] == v;
  }
};

}  // namespace nfv::placement
