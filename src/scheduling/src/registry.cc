#include "nfv/scheduling/algorithm.h"

namespace nfv::sched {

std::unique_ptr<SchedulingAlgorithm> make_scheduling_algorithm(
    std::string_view name) {
  if (name == "RCKK") return std::make_unique<RckkScheduling>();
  if (name == "CGA") return std::make_unique<CgaScheduling>();
  if (name == "CGA-online") {
    CgaScheduling::Options online;
    online.sort_decreasing = false;
    return std::make_unique<CgaScheduling>(online);
  }
  if (name == "LPT") return std::make_unique<LptScheduling>();
  if (name == "KK-fwd") return std::make_unique<KkForwardScheduling>();
  if (name == "CKK") return std::make_unique<CkkScheduling>();
  if (name == "DP2") return std::make_unique<TwoWayDpScheduling>();
  return nullptr;
}

std::vector<std::string> scheduling_algorithm_names() {
  return {"RCKK", "CGA", "CGA-online", "LPT", "KK-fwd", "CKK", "DP2"};
}

}  // namespace nfv::sched
