// Scheduling algorithm interface and the concrete algorithms of
// Sec. IV-B / V-C:
//   * RCKK — the paper's Algorithm 2 (reverse-order Karmarkar-Karp m-way
//     differencing with request-set tracking),
//   * CGA  — Complete Greedy Algorithm (Korf [24]) baseline,
// plus LPT greedy, round-robin, forward-KK (ablation) and CKK (complete
// Karmarkar-Karp) comparators.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "nfv/common/rng.h"
#include "nfv/scheduling/problem.h"
#include "nfv/scheduling/workspace.h"

namespace nfv::sched {

/// Abstract scheduler.  Implementations are stateless; all randomness (none
/// of the current algorithms use any) flows through the Rng argument.
class SchedulingAlgorithm {
 public:
  virtual ~SchedulingAlgorithm() = default;

  /// Computes an assignment of every request to an instance.
  [[nodiscard]] virtual Schedule schedule(const SchedulingProblem& problem,
                                          Rng& rng) const = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;
};

/// Longest Processing Time greedy: requests by descending rate, each to the
/// currently least-loaded instance.  This is CGA's first descent.
class LptScheduling final : public SchedulingAlgorithm {
 public:
  [[nodiscard]] Schedule schedule(const SchedulingProblem& problem,
                                  Rng& rng) const override;
  [[nodiscard]] std::string_view name() const override { return "LPT"; }
};

/// Complete Greedy Algorithm (Korf): DFS over instance choices in
/// ascending-load order, pruning dominated branches; anytime under a search
/// budget.  The default budget of 0 runs the first descent only — exactly
/// what a wall-clock-capped CGA yields at the paper's evaluation scale,
/// where the full m^n tree is unreachable (Sec. IV-B: CGA "does not scale
/// well").  Raise the budget to let it search.
class CgaScheduling final : public SchedulingAlgorithm {
 public:
  struct Options {
    /// Max search-tree nodes; 0 = first descent only (pure LPT when
    /// sort_decreasing, online least-loaded greedy otherwise).
    std::uint64_t node_budget = 0;
    /// Process requests in descending-rate order (Korf's CGA).  The
    /// paper's evaluation matches an implementation that keeps arrival
    /// order instead (see EXPERIMENTS.md); registry name "CGA-online".
    bool sort_decreasing = true;
  };

  CgaScheduling() = default;
  explicit CgaScheduling(Options options);

  [[nodiscard]] Schedule schedule(const SchedulingProblem& problem,
                                  Rng& rng) const override;
  [[nodiscard]] std::string_view name() const override {
    return options_.sort_decreasing ? "CGA" : "CGA-online";
  }

  [[nodiscard]] const Options& options() const { return options_; }

 private:
  Options options_{};
};

/// Forward multi-way Karmarkar-Karp: like RCKK but combines the two
/// selected partitions largest-with-largest instead of in reverse order.
/// Exists to quantify the paper's reverse-combination design choice.
class KkForwardScheduling final : public SchedulingAlgorithm {
 public:
  [[nodiscard]] Schedule schedule(const SchedulingProblem& problem,
                                  Rng& rng) const override;
  [[nodiscard]] std::string_view name() const override { return "KK-fwd"; }
};

/// RCKK — Algorithm 2.  Each request starts as a partition (λ_r, 0, ..., 0);
/// repeatedly the two partitions with the largest leading value are combined
/// position-wise in reverse order, re-sorted descending, normalized by the
/// smallest position, and reinserted; request sets merge accordingly.  The
/// surviving partition's position sets are the instance assignment.
class RckkScheduling final : public SchedulingAlgorithm {
 public:
  [[nodiscard]] Schedule schedule(const SchedulingProblem& problem,
                                  Rng& rng) const override;
  [[nodiscard]] std::string_view name() const override { return "RCKK"; }
};

/// RCKK into caller-owned storage: the one code path behind
/// RckkScheduling::schedule, which wraps it with a fresh workspace.  A
/// caller that keeps `workspace` and `out` across calls makes no heap
/// allocation once they have held a problem this large.
void rckk_schedule(const SchedulingProblem& problem, KkWorkspace& workspace,
                   Schedule& out);

/// Complete Karmarkar-Karp: CKK search with RCKK's combine as the first
/// branch and alternative pairings as backtracks, under a node budget.
class CkkScheduling final : public SchedulingAlgorithm {
 public:
  struct Options {
    std::uint64_t node_budget = 20'000;
  };

  CkkScheduling() = default;
  explicit CkkScheduling(Options options);

  [[nodiscard]] Schedule schedule(const SchedulingProblem& problem,
                                  Rng& rng) const override;
  [[nodiscard]] std::string_view name() const override { return "CKK"; }

 private:
  Options options_{};
};

/// Exact 2-way partitioner via subset-sum dynamic programming on rates
/// quantized to `resolution` buckets — a ground-truth oracle for m = 2
/// (throws for any other instance count).  Pseudo-polynomial:
/// O(n · resolution) time and memory.
class TwoWayDpScheduling final : public SchedulingAlgorithm {
 public:
  struct Options {
    /// DP grid size; the quantum is Σλ / resolution, so the result is
    /// optimal to within one quantum per request.
    std::uint32_t resolution = 1'000'000;
  };

  TwoWayDpScheduling() = default;
  explicit TwoWayDpScheduling(Options options);

  [[nodiscard]] Schedule schedule(const SchedulingProblem& problem,
                                  Rng& rng) const override;
  [[nodiscard]] std::string_view name() const override { return "DP2"; }

 private:
  Options options_{};
};

/// Returns the scheduler registered under `name`, one of
/// scheduling_algorithm_names(); nullptr if unknown.
[[nodiscard]] std::unique_ptr<SchedulingAlgorithm> make_scheduling_algorithm(
    std::string_view name);

/// All registered algorithm names.
[[nodiscard]] std::vector<std::string> scheduling_algorithm_names();

}  // namespace nfv::sched
