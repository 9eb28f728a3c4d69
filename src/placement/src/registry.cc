#include "nfv/placement/algorithm.h"
#include "nfv/placement/annealing.h"
#include "nfv/placement/cabp.h"
#include "nfv/placement/lp_round.h"
#include "nfv/placement/pso.h"

namespace nfv::placement {

std::unique_ptr<PlacementAlgorithm> make_placement_algorithm(
    std::string_view name) {
  if (name == "BFDSU") return std::make_unique<BfdsuPlacement>();
  if (name == "FFD") return std::make_unique<FfdPlacement>();
  if (name == "NAH") return std::make_unique<NahPlacement>();
  if (name == "BFD") return std::make_unique<BfdPlacement>();
  if (name == "WFD") return std::make_unique<WfdPlacement>();
  if (name == "CABP") return std::make_unique<CabpPlacement>();
  if (name == "SA") return std::make_unique<AnnealingPlacement>();
  if (name == "PSO") return std::make_unique<PsoPlacement>();
  if (name == "LP") return std::make_unique<LpRoundPlacement>();
  if (name == "Exact") return std::make_unique<ExactPlacement>();
  return nullptr;
}

std::vector<std::string> placement_algorithm_names() {
  return {"BFDSU", "CABP", "SA",  "PSO", "LP",
          "FFD",   "NAH",  "BFD", "WFD", "Exact"};
}

}  // namespace nfv::placement
