#include "nfv/scheduling/migration.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "nfv/common/rng.h"
#include "nfv/scheduling/algorithm.h"

namespace nfv::sched {
namespace {

SchedulingProblem make_problem(std::vector<double> rates, std::uint32_t m,
                               double mu = 1000.0) {
  SchedulingProblem p;
  p.arrival_rates = std::move(rates);
  p.service_rate = mu;
  p.instance_count = m;
  return p;
}

std::vector<double> loads_of(const SchedulingProblem& p,
                             const std::vector<std::uint32_t>& assign) {
  std::vector<double> loads(p.instance_count, 0.0);
  for (std::size_t r = 0; r < assign.size(); ++r) {
    loads[assign[r]] += p.effective_rate(r);
  }
  return loads;
}

std::vector<std::uint32_t> apply(const std::vector<std::uint32_t>& current,
                                 const MigrationPlan& plan) {
  std::vector<std::uint32_t> out = current;
  for (const MigrationMove& m : plan.moves) {
    EXPECT_EQ(out[m.request], m.from);
    out[m.request] = m.to;
  }
  return out;
}

TEST(BoundedMigration, NeverExceedsBudget) {
  const SchedulingProblem p =
      make_problem({90, 80, 70, 60, 50, 40, 30, 20, 10, 5}, 3);
  // Worst case: everything piled on one instance.
  const std::vector<std::uint32_t> current(p.request_count(), 0);
  Rng rng(1);
  const Schedule target = RckkScheduling{}.schedule(p, rng);
  for (const std::uint32_t budget : {0u, 1u, 2u, 4u, 100u}) {
    const MigrationPlan plan =
        plan_bounded_migration(p, current, target, budget);
    EXPECT_LE(plan.moves.size(), budget);
  }
}

TEST(BoundedMigration, ReducesImbalanceTowardTarget) {
  const SchedulingProblem p = make_problem({90, 80, 70, 60, 50, 40}, 2);
  const std::vector<std::uint32_t> current(p.request_count(), 0);
  Rng rng(1);
  const Schedule target = RckkScheduling{}.schedule(p, rng);
  const MigrationPlan plan = plan_bounded_migration(p, current, target, 3);
  EXPECT_FALSE(plan.moves.empty());
  EXPECT_LT(plan.imbalance_after, plan.imbalance_before);
  // The reported imbalances match the applied assignment.
  const auto loads = loads_of(p, apply(current, plan));
  const auto [lo, hi] = std::minmax_element(loads.begin(), loads.end());
  EXPECT_DOUBLE_EQ(plan.imbalance_after, *hi - *lo);
}

TEST(BoundedMigration, AlreadyOptimalNeedsNoMoves) {
  const SchedulingProblem p = make_problem({50, 50, 30, 30}, 2);
  Rng rng(1);
  const Schedule target = RckkScheduling{}.schedule(p, rng);
  // Start exactly at the target: the matching maps each part onto itself
  // (possibly permuted), so no request is mismatched.
  const MigrationPlan plan =
      plan_bounded_migration(p, target.instance_of, target, 10);
  EXPECT_TRUE(plan.moves.empty());
  EXPECT_DOUBLE_EQ(plan.imbalance_before, plan.imbalance_after);
}

TEST(BoundedMigration, MatchingPreservesInstanceIdentity) {
  // Instance 1 already holds the bulk of part X: relabeling must keep X on
  // instance 1 instead of swapping both populations.
  const SchedulingProblem p = make_problem({100, 100, 100, 5}, 2);
  // current: the three heavy requests on instance 1, the light one on 0.
  const std::vector<std::uint32_t> current = {1, 1, 1, 0};
  Schedule target;
  // Target splits heavies 2/1: parts {0,1},{2,3} by position.
  target.instance_of = {0, 0, 1, 1};
  const MigrationPlan plan = plan_bounded_migration(p, current, target, 10);
  // Part 0 (200 eff) overlaps instance 1 most, so it is matched there and
  // at most the remaining mismatches move.
  ASSERT_EQ(plan.part_of_instance.size(), 2u);
  EXPECT_EQ(plan.part_of_instance[1], 0u);
  EXPECT_LE(plan.moves.size(), 2u);
}

TEST(BoundedMigration, RespectsCapacityLimit) {
  const SchedulingProblem p = make_problem({60, 50, 45}, 2);
  const std::vector<std::uint32_t> current = {0, 0, 1};
  Schedule target;
  // The matching keeps part 0 on instance 0 and part 1 on instance 1, so
  // the only mismatch is request 1 moving to instance 1 (45 + 50 = 95).
  target.instance_of = {0, 1, 1};
  {
    const MigrationPlan plan =
        plan_bounded_migration(p, current, target, 10, 90.0);
    EXPECT_TRUE(plan.moves.empty());  // would exceed the cap: skipped
  }
  {
    const MigrationPlan plan =
        plan_bounded_migration(p, current, target, 10, 0.0);  // no cap
    ASSERT_EQ(plan.moves.size(), 1u);
    EXPECT_EQ(plan.moves[0].request, 1u);
    EXPECT_EQ(plan.moves[0].to, 1u);
  }
}

TEST(BoundedMigration, MovesHeaviestMismatchFirst) {
  const SchedulingProblem p = make_problem({90, 40, 30, 20}, 2);
  const std::vector<std::uint32_t> current = {0, 0, 0, 0};
  Rng rng(1);
  const Schedule target = RckkScheduling{}.schedule(p, rng);
  const MigrationPlan plan = plan_bounded_migration(p, current, target, 1);
  ASSERT_EQ(plan.moves.size(), 1u);
  // With budget 1, the single move is the heaviest mismatched request.
  double heaviest = 0.0;
  for (std::size_t r = 0; r < p.request_count(); ++r) {
    const std::uint32_t mapped = plan.part_of_instance[current[r]];
    if (target.instance_of[r] != mapped) {
      heaviest = std::max(heaviest, p.effective_rate(r));
    }
  }
  EXPECT_DOUBLE_EQ(p.effective_rate(plan.moves[0].request), heaviest);
}

/// Executable specification of plan_bounded_migration: the original
/// O(m^3) matching — m greedy rounds, each scanning every free (part,
/// instance) cell for the largest overlap, ties on the lower part then the
/// lower instance — followed by the same move selection.
MigrationPlan reference_plan(const SchedulingProblem& problem,
                             const std::vector<std::uint32_t>& current,
                             const Schedule& target, std::uint32_t budget,
                             double capacity_limit) {
  const std::size_t n = problem.request_count();
  const std::uint32_t m = problem.instance_count;
  std::vector<double> overlap(static_cast<std::size_t>(m) * m, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    overlap[static_cast<std::size_t>(target.instance_of[r]) * m + current[r]] +=
        problem.effective_rate(r);
  }
  MigrationPlan plan;
  std::vector<std::uint32_t> instance_of_part(m, 0);
  std::vector<bool> part_taken(m, false);
  std::vector<bool> instance_taken(m, false);
  for (std::uint32_t round = 0; round < m; ++round) {
    double best = -1.0;
    std::uint32_t best_p = 0;
    std::uint32_t best_k = 0;
    for (std::uint32_t p = 0; p < m; ++p) {
      if (part_taken[p]) continue;
      for (std::uint32_t k = 0; k < m; ++k) {
        if (instance_taken[k]) continue;
        const double o = overlap[static_cast<std::size_t>(p) * m + k];
        if (o > best) {
          best = o;
          best_p = p;
          best_k = k;
        }
      }
    }
    part_taken[best_p] = true;
    instance_taken[best_k] = true;
    instance_of_part[best_p] = best_k;
  }
  plan.part_of_instance.assign(m, 0);
  for (std::uint32_t p = 0; p < m; ++p) {
    plan.part_of_instance[instance_of_part[p]] = p;
  }
  std::vector<double> load(m, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    load[current[r]] += problem.effective_rate(r);
  }
  const auto spread = [&] {
    const auto [lo, hi] = std::minmax_element(load.begin(), load.end());
    return *hi - *lo;
  };
  plan.imbalance_before = spread();
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
  plan.imbalance_after = spread();
  return plan;
}

void expect_matches_reference(const SchedulingProblem& p,
                              const std::vector<std::uint32_t>& current,
                              const Schedule& target, std::uint32_t budget,
                              double cap, int round) {
  const MigrationPlan want = reference_plan(p, current, target, budget, cap);
  const MigrationPlan got =
      plan_bounded_migration(p, current, target, budget, cap);
  ASSERT_EQ(got.part_of_instance, want.part_of_instance) << "round " << round;
  ASSERT_EQ(got.moves.size(), want.moves.size()) << "round " << round;
  for (std::size_t i = 0; i < got.moves.size(); ++i) {
    ASSERT_EQ(got.moves[i].request, want.moves[i].request);
    ASSERT_EQ(got.moves[i].from, want.moves[i].from);
    ASSERT_EQ(got.moves[i].to, want.moves[i].to);
  }
  ASSERT_EQ(got.imbalance_before, want.imbalance_before);
  ASSERT_EQ(got.imbalance_after, want.imbalance_after);
}

/// How the greedy matching meets an instance: some part overlaps no
/// instance, or all m parts are matched before the last non-zero cell in
/// the (overlap desc, part, instance) order.
struct WalkShape {
  bool empty_part = false;
  bool matched_early = false;
};

WalkShape walk_shape(const SchedulingProblem& problem,
                     const std::vector<std::uint32_t>& current,
                     const Schedule& target) {
  const std::uint32_t m = problem.instance_count;
  std::vector<double> overlap(static_cast<std::size_t>(m) * m, 0.0);
  for (std::size_t r = 0; r < current.size(); ++r) {
    overlap[static_cast<std::size_t>(target.instance_of[r]) * m + current[r]] +=
        problem.effective_rate(r);
  }
  struct Cell {
    double overlap;
    std::uint32_t part;
    std::uint32_t instance;
  };
  std::vector<Cell> cells;
  std::vector<bool> part_seen(m, false);
  for (std::uint32_t p = 0; p < m; ++p) {
    for (std::uint32_t k = 0; k < m; ++k) {
      const double o = overlap[static_cast<std::size_t>(p) * m + k];
      if (o > 0.0) {
        cells.push_back({o, p, k});
        part_seen[p] = true;
      }
    }
  }
  WalkShape shape;
  shape.empty_part =
      std::find(part_seen.begin(), part_seen.end(), false) != part_seen.end();
  std::sort(cells.begin(), cells.end(), [](const Cell& a, const Cell& b) {
    if (a.overlap != b.overlap) return a.overlap > b.overlap;
    if (a.part != b.part) return a.part < b.part;
    return a.instance < b.instance;
  });
  std::vector<bool> part_taken(m, false);
  std::vector<bool> instance_taken(m, false);
  std::uint32_t matched = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    if (part_taken[c.part] || instance_taken[c.instance]) continue;
    part_taken[c.part] = true;
    instance_taken[c.instance] = true;
    if (++matched == m) {
      shape.matched_early = i + 1 < cells.size();
      break;
    }
  }
  return shape;
}

TEST(BoundedMigration, MatchesCubicReferenceOnRandomInstances) {
  // Current assignments are the target relabelled and perturbed, uniform
  // noise, or everything on one instance; a quarter of the draws use
  // all-equal rates, so the overlap ties are exercised heavily.
  Rng rng(99);
  for (int round = 0; round < 2500; ++round) {
    const auto m = static_cast<std::uint32_t>(rng.uniform_int(2, 40));
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 6 * m));
    const bool equal = rng.uniform_int(0, 3) == 0;
    std::vector<double> rates;
    for (std::size_t r = 0; r < n; ++r) {
      rates.push_back(equal ? 10.0 : rng.uniform(1.0, 100.0));
    }
    const SchedulingProblem p = make_problem(std::move(rates), m);
    Schedule target;
    if (rng.uniform_int(0, 1) == 0) {
      target = RckkScheduling{}.schedule(p, rng);
    } else {
      for (std::size_t r = 0; r < n; ++r) {
        target.instance_of.push_back(
            static_cast<std::uint32_t>(rng.uniform_int(0, m - 1)));
      }
    }
    std::vector<std::uint32_t> current(n, 0);
    const std::int64_t mode = rng.uniform_int(0, 2);
    const auto shift = static_cast<std::uint32_t>(rng.uniform_int(0, m - 1));
    for (std::size_t r = 0; r < n; ++r) {
      if (mode == 0) {
        current[r] = (target.instance_of[r] + shift) % m;
        if (rng.uniform_int(0, 4) == 0) {
          current[r] = static_cast<std::uint32_t>(rng.uniform_int(0, m - 1));
        }
      } else if (mode == 1) {
        current[r] = static_cast<std::uint32_t>(rng.uniform_int(0, m - 1));
      }
    }
    const auto budget = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n)));
    const double cap =
        rng.uniform_int(0, 1) == 0 ? 0.0 : 1.5 * p.total_effective_rate() / m;
    ASSERT_NO_FATAL_FAILURE(
        expect_matches_reference(p, current, target, budget, cap, round));
  }

  // Two shapes the draws above rarely force.  Parts with no overlap: the
  // target uses only the first few parts and the live assignment only
  // some instances, so the leftover pass pairs the empty parts.  Every
  // part matched early: each part sits mostly on one instance (a
  // rotation of the target) and a few requests stray, so the greedy walk
  // has matched all m parts while smaller stray cells remain.  Integer
  // rates 1-3 tie many overlaps.
  int empty_part_rounds = 0;
  int matched_early_rounds = 0;
  for (int round = 0; round < 1500; ++round) {
    const auto m = static_cast<std::uint32_t>(rng.uniform_int(2, 40));
    const bool tied = rng.uniform_int(0, 1) == 0;
    const bool empty_parts = round % 2 == 0;
    const auto n = static_cast<std::size_t>(
        empty_parts ? rng.uniform_int(1, 6 * m) : rng.uniform_int(2, 6) * m);
    std::vector<double> rates;
    for (std::size_t r = 0; r < n; ++r) {
      rates.push_back(tied ? static_cast<double>(rng.uniform_int(1, 3))
                           : rng.uniform(1.0, 100.0));
    }
    const SchedulingProblem p = make_problem(std::move(rates), m);
    Schedule target;
    std::vector<std::uint32_t> current(n, 0);
    if (empty_parts) {
      const std::int64_t parts =
          rng.uniform_int(1, std::max<std::int64_t>(1, m / 2));
      const std::int64_t instances = rng.uniform_int(1, m);
      for (std::size_t r = 0; r < n; ++r) {
        target.instance_of.push_back(
            static_cast<std::uint32_t>(rng.uniform_int(0, parts - 1)));
        current[r] =
            static_cast<std::uint32_t>(rng.uniform_int(0, instances - 1));
      }
    } else {
      const auto shift = static_cast<std::uint32_t>(rng.uniform_int(0, m - 1));
      for (std::size_t r = 0; r < n; ++r) {
        target.instance_of.push_back(static_cast<std::uint32_t>(r % m));
        current[r] = rng.uniform_int(0, 7) == 0
                         ? static_cast<std::uint32_t>(rng.uniform_int(0, m - 1))
                         : (target.instance_of[r] + shift) % m;
      }
    }
    const WalkShape shape = walk_shape(p, current, target);
    empty_part_rounds += shape.empty_part ? 1 : 0;
    matched_early_rounds += shape.matched_early ? 1 : 0;
    const auto budget = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n)));
    const double cap =
        rng.uniform_int(0, 1) == 0 ? 0.0 : 1.5 * p.total_effective_rate() / m;
    ASSERT_NO_FATAL_FAILURE(expect_matches_reference(p, current, target,
                                                     budget, cap, 2500 + round));
  }
  EXPECT_GT(empty_part_rounds, 500);
  EXPECT_GT(matched_early_rounds, 500);
}

TEST(BoundedMigration, LazyWalkMatchesStableSortWalkOnReusedWorkspace) {
  // The planner pops mismatched requests off a heap under (rate desc,
  // index asc) and stops when the budget is spent; the spec stable-sorts
  // every mismatched request by rate first.  Small budgets (0-8) are the
  // serving engine's regime, where the lazy walk stops early; tied rates
  // (a handful of integer values, per-request P of 0.5 or 1) put many
  // requests on one key, and capacity caps make the walk skip requests.
  // One workspace and plan are reused across every call, with m and n
  // growing and shrinking, so a stale buffer would show up as a mismatch.
  Rng rng(4242);
  MigrationWorkspace workspace;
  MigrationPlan got;
  for (int round = 0; round < 3000; ++round) {
    const auto m = static_cast<std::uint32_t>(
        rng.uniform_int(2, round % 2 == 0 ? 40 : 6));
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 8 * m));
    const bool tied = rng.uniform_int(0, 1) == 0;
    SchedulingProblem p;
    p.instance_count = m;
    p.service_rate = 1000.0;
    for (std::size_t r = 0; r < n; ++r) {
      p.arrival_rates.push_back(tied ? static_cast<double>(rng.uniform_int(1, 3))
                                     : rng.uniform(1.0, 100.0));
    }
    if (rng.uniform_int(0, 1) == 0) {
      for (std::size_t r = 0; r < n; ++r) {
        p.delivery_probs.push_back(
            tied ? (rng.uniform_int(0, 1) == 0 ? 0.5 : 1.0)
                 : rng.uniform(0.9, 1.0));
      }
    }
    Schedule target;
    if (rng.uniform_int(0, 1) == 0) {
      target = RckkScheduling{}.schedule(p, rng);
    } else {
      for (std::size_t r = 0; r < n; ++r) {
        target.instance_of.push_back(
            static_cast<std::uint32_t>(rng.uniform_int(0, m - 1)));
      }
    }
    std::vector<std::uint32_t> current(n, 0);
    for (std::size_t r = 0; r < n; ++r) {
      current[r] = rng.uniform_int(0, 3) == 0
                       ? static_cast<std::uint32_t>(rng.uniform_int(0, m - 1))
                       : target.instance_of[r];
    }
    const auto budget = static_cast<std::uint32_t>(rng.uniform_int(0, 8));
    // A cap near the balanced load makes a good share of moves skip.
    const double cap = rng.uniform_int(0, 2) == 0
                           ? 0.0
                           : rng.uniform(0.9, 1.5) * p.total_effective_rate() /
                                 static_cast<double>(m);
    const MigrationPlan want = reference_plan(p, current, target, budget, cap);
    plan_bounded_migration(p, current, target, budget, cap, workspace, got);
    ASSERT_EQ(got.part_of_instance, want.part_of_instance) << "round " << round;
    ASSERT_EQ(got.moves, want.moves) << "round " << round;
    ASSERT_EQ(got.imbalance_before, want.imbalance_before) << "round " << round;
    ASSERT_EQ(got.imbalance_after, want.imbalance_after) << "round " << round;
  }
}

}  // namespace
}  // namespace nfv::sched
