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

MigrationPlan plan_bounded_migration(const SchedulingProblem& problem,
                                     const std::vector<std::uint32_t>& current,
                                     const Schedule& target,
                                     std::uint32_t budget,
                                     double capacity_limit) {
  const std::size_t n = problem.request_count();
  const std::uint32_t m = problem.instance_count;
  NFV_REQUIRE(current.size() == n);
  NFV_REQUIRE(target.instance_of.size() == n);
  for (std::size_t r = 0; r < n; ++r) {
    NFV_REQUIRE(current[r] < m);
    NFV_REQUIRE(target.instance_of[r] < m);
  }

  // Effective-load overlap between target part p and live instance k.
  std::vector<double> overlap(static_cast<std::size_t>(m) * m, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    overlap[static_cast<std::size_t>(target.instance_of[r]) * m + current[r]] +=
        problem.effective_rate(r);
  }

  // Greedy maximum-overlap matching of parts to instances: repeatedly take
  // the largest overlap among free pairs, ties on the lower part then the
  // lower instance.  One sort of the non-zero cells by that order, walked
  // once, takes exactly those pairs; the leftover parts then pair with the
  // leftover instances in ascending order, as the all-zero rounds would.
  constexpr std::uint32_t kFree = std::numeric_limits<std::uint32_t>::max();
  struct Cell {
    double overlap;
    std::uint32_t part;
    std::uint32_t instance;
  };
  std::vector<Cell> cells;
  cells.reserve(std::min(n, static_cast<std::size_t>(m) * m));
  for (std::uint32_t p = 0; p < m; ++p) {
    for (std::uint32_t k = 0; k < m; ++k) {
      const double o = overlap[static_cast<std::size_t>(p) * m + k];
      if (o > 0.0) cells.push_back({o, p, k});
    }
  }
  std::sort(cells.begin(), cells.end(), [](const Cell& a, const Cell& b) {
    if (a.overlap != b.overlap) return a.overlap > b.overlap;
    if (a.part != b.part) return a.part < b.part;
    return a.instance < b.instance;
  });
  MigrationPlan plan;
  std::vector<std::uint32_t> instance_of_part(m, kFree);
  plan.part_of_instance.assign(m, kFree);
  const auto match = [&](std::uint32_t p, std::uint32_t k) {
    instance_of_part[p] = k;
    plan.part_of_instance[k] = p;
  };
  for (const Cell& c : cells) {
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
  std::vector<double> load(m, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    load[current[r]] += problem.effective_rate(r);
  }
  plan.imbalance_before = spread(load);

  std::vector<std::size_t> mismatched;
  for (std::size_t r = 0; r < n; ++r) {
    if (instance_of_part[target.instance_of[r]] != current[r]) {
      mismatched.push_back(r);
    }
  }
  std::stable_sort(mismatched.begin(), mismatched.end(),
                   [&](std::size_t a, std::size_t b) {
                     return problem.effective_rate(a) >
                            problem.effective_rate(b);
                   });

  for (const std::size_t r : mismatched) {
    if (plan.moves.size() >= budget) break;
    const std::uint32_t from = current[r];
    const std::uint32_t to = instance_of_part[target.instance_of[r]];
    const double rate = problem.effective_rate(r);
    if (capacity_limit > 0.0 && load[to] + rate > capacity_limit) continue;
    load[from] -= rate;
    load[to] += rate;
    plan.moves.push_back({r, from, to});
  }
  plan.imbalance_after = spread(load);
  return plan;
}

}  // namespace nfv::sched
