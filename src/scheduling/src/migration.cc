#include "nfv/scheduling/migration.h"

#include <algorithm>
#include <limits>

#include "nfv/common/error.h"

namespace nfv::sched {

namespace {

double spread(const std::vector<double>& loads) {
  if (loads.empty()) return 0.0;
  const auto [lo, hi] = std::minmax_element(loads.begin(), loads.end());
  return *hi - *lo;
}

}  // namespace

void plan_bounded_migration(const SchedulingProblem& problem,
                            const std::vector<std::uint32_t>& current,
                            const Schedule& target, std::uint32_t budget,
                            double capacity_limit,
                            MigrationWorkspace& workspace,
                            MigrationPlan& plan) {
  const std::size_t n = problem.request_count();
  const std::uint32_t m = problem.instance_count;
  NFV_REQUIRE(current.size() == n);
  NFV_REQUIRE(target.instance_of.size() == n);
  for (std::size_t r = 0; r < n; ++r) {
    NFV_REQUIRE(current[r] < m);
    NFV_REQUIRE(target.instance_of[r] < m);
  }

  // Effective-load overlap between target part p and live instance k.
  std::vector<double>& overlap = workspace.overlap;
  overlap.assign(static_cast<std::size_t>(m) * m, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    overlap[static_cast<std::size_t>(target.instance_of[r]) * m + current[r]] +=
        problem.effective_rate(r);
  }

  // Greedy maximum-overlap matching of parts to instances: repeatedly take
  // the largest overlap among free pairs, ties on the lower part then the
  // lower instance.  One sort of the non-zero cells by that order, walked
  // once, takes exactly those pairs.  (The walk usually reaches the last
  // cells before every part is matched, so a lazy heap would pop nearly
  // all of them; one sort is cheaper.)  The leftover parts then pair with
  // the leftover instances in ascending order, as the all-zero rounds
  // would.
  constexpr std::uint32_t kFree = std::numeric_limits<std::uint32_t>::max();
  using detail::OverlapCell;
  std::vector<OverlapCell>& cells = workspace.cells;
  cells.clear();
  for (std::uint32_t p = 0; p < m; ++p) {
    for (std::uint32_t k = 0; k < m; ++k) {
      const double o = overlap[static_cast<std::size_t>(p) * m + k];
      if (o > 0.0) cells.push_back({o, p, k});
    }
  }
  std::sort(cells.begin(), cells.end(),
            [](const OverlapCell& a, const OverlapCell& b) {
              if (a.overlap != b.overlap) return a.overlap > b.overlap;
              if (a.part != b.part) return a.part < b.part;
              return a.instance < b.instance;
            });
  std::vector<std::uint32_t>& instance_of_part = workspace.instance_of_part;
  instance_of_part.assign(m, kFree);
  plan.part_of_instance.assign(m, kFree);
  const auto match = [&](std::uint32_t p, std::uint32_t k) {
    instance_of_part[p] = k;
    plan.part_of_instance[k] = p;
  };
  for (const OverlapCell& c : cells) {
    if (instance_of_part[c.part] == kFree &&
        plan.part_of_instance[c.instance] == kFree) {
      match(c.part, c.instance);
    }
  }
  for (std::uint32_t p = 0, k = 0; p < m; ++p) {
    if (instance_of_part[p] != kFree) continue;
    while (plan.part_of_instance[k] != kFree) ++k;
    match(p, k);
  }

  // Current effective loads, and the instance each request should end on.
  std::vector<double>& load = workspace.load;
  load.assign(m, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    load[current[r]] += problem.effective_rate(r);
  }
  plan.imbalance_before = spread(load);

  // Moves go heaviest mismatched request first, ties on the lower index —
  // the order of a stable sort by rate.  (rate, index) is a total order,
  // so popping a heap yields that sequence lazily: the walk stops once
  // the budget is spent instead of ordering every mismatched request.
  using detail::RankedRequest;
  std::vector<RankedRequest>& mismatched = workspace.mismatched;
  mismatched.clear();
  plan.moves.clear();
  if (budget > 0) {
    for (std::size_t r = 0; r < n; ++r) {
      if (instance_of_part[target.instance_of[r]] != current[r]) {
        mismatched.push_back({problem.effective_rate(r), r});
      }
    }
  }
  const auto walked_after = [](const RankedRequest& a,
                               const RankedRequest& b) {
    if (a.rate != b.rate) return a.rate < b.rate;
    return a.request > b.request;
  };
  std::make_heap(mismatched.begin(), mismatched.end(), walked_after);
  while (plan.moves.size() < budget && !mismatched.empty()) {
    std::pop_heap(mismatched.begin(), mismatched.end(), walked_after);
    const RankedRequest next = mismatched.back();
    mismatched.pop_back();
    const std::size_t r = next.request;
    const std::uint32_t from = current[r];
    const std::uint32_t to = instance_of_part[target.instance_of[r]];
    const double rate = next.rate;
    if (capacity_limit > 0.0 && load[to] + rate > capacity_limit) continue;
    load[from] -= rate;
    load[to] += rate;
    plan.moves.push_back({r, from, to});
  }
  plan.imbalance_after = spread(load);
}

MigrationPlan plan_bounded_migration(const SchedulingProblem& problem,
                                     const std::vector<std::uint32_t>& current,
                                     const Schedule& target,
                                     std::uint32_t budget,
                                     double capacity_limit) {
  MigrationWorkspace workspace;
  MigrationPlan plan;
  plan_bounded_migration(problem, current, target, budget, capacity_limit,
                         workspace, plan);
  return plan;
}

}  // namespace nfv::sched
