// Bounded-migration planning for the online serving engine: given a live
// per-VNF assignment and a freshly re-solved target schedule (RCKK), pick
// at most K request moves that walk the live state toward the target.
//
// A full re-solve reshuffles almost every request; live traffic cannot
// absorb that.  The planner therefore (1) matches target parts to live
// instances so the overlap of effective load is maximal — the identity of
// an instance is "whatever part it already mostly serves" — and (2) moves
// only the heaviest mismatched requests, largest effective rate first,
// until the budget is spent.  Everything is deterministic: ties break on
// the lower index.
#pragma once

#include <cstdint>
#include <vector>

#include "nfv/scheduling/problem.h"
#include "nfv/scheduling/workspace.h"

namespace nfv::sched {

/// One planned request move between instances of the same VNF.
struct MigrationMove {
  std::size_t request = 0;  ///< problem position (see SchedulingProblem)
  std::uint32_t from = 0;   ///< current instance
  std::uint32_t to = 0;     ///< target instance

  friend bool operator==(const MigrationMove&, const MigrationMove&) = default;
};

struct MigrationPlan {
  /// At most `budget` moves, ordered largest effective rate first.
  std::vector<MigrationMove> moves;
  /// Target part matched to each current instance (part_of_instance[k] is
  /// the target-schedule part whose requests instance k keeps/absorbs).
  std::vector<std::uint32_t> part_of_instance;
  double imbalance_before = 0.0;  ///< max−min effective load, pre-plan
  double imbalance_after = 0.0;   ///< max−min effective load, post-plan
};

/// Plans at most `budget` moves from `current` toward `target`.
///
/// `current` and `target.instance_of` assign every problem position an
/// instance in [0, problem.instance_count).  When `capacity_limit` > 0, a
/// move whose destination effective load would exceed it is skipped (the
/// serving engine passes its admission limit so rebalancing can never
/// overload an instance).
[[nodiscard]] MigrationPlan plan_bounded_migration(
    const SchedulingProblem& problem, const std::vector<std::uint32_t>& current,
    const Schedule& target, std::uint32_t budget, double capacity_limit = 0.0);

/// The same plan written into `plan`, using the caller's `workspace`: the
/// one code path behind the value-returning form, which wraps it with
/// fresh storage.  Once `workspace` and `plan` have held a problem this
/// large, a call makes no heap allocation.
void plan_bounded_migration(const SchedulingProblem& problem,
                            const std::vector<std::uint32_t>& current,
                            const Schedule& target, std::uint32_t budget,
                            double capacity_limit,
                            MigrationWorkspace& workspace,
                            MigrationPlan& plan);

}  // namespace nfv::sched
