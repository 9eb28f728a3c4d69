// Complete Karmarkar-Karp for m-way partitioning, anytime under a node
// budget.  At each combine step the first branch is RCKK's reverse-order
// pairing; alternatives rotate the reversed positions of the second
// partition (m-1 further pairings), which covers the pairing space Korf's
// m-way CKK explores without enumerating all m! bijections.  The best
// complete differencing (minimum final spread) wins.
#include <cstdint>
#include <vector>

#include "nfv/scheduling/algorithm.h"
#include "kk_util.h"

namespace nfv::sched {

CkkScheduling::CkkScheduling(Options options) : options_(options) {
  NFV_REQUIRE(options_.node_budget >= 1);
}

namespace {

/// Depth-first search over values only: a node at depth d holds the heap
/// `frames[d]` and writes each child's combined row into arena row n+d.
/// The winning leaf's request sets are rebuilt afterwards by replaying its
/// per-depth shifts through the arena.
struct CkkSearch {
  CkkSearch(detail::KkArena& arena_, std::size_t n_, std::size_t m_,
            std::uint64_t budget_)
      : arena(arena_), n(n_), m(m_), budget(budget_), frames(n_),
        path(n_ - 1) {
    frames[0] = arena.heap();
  }

  detail::KkArena& arena;
  std::size_t n;
  std::size_t m;
  std::uint64_t budget;
  std::uint64_t nodes = 0;
  bool exhausted = false;
  bool found = false;
  double best_spread = 0.0;
  std::vector<std::vector<detail::HeapEntry>> frames;
  std::vector<std::uint32_t> path;       // shift taken at each depth
  std::vector<std::uint32_t> best_path;

  void dfs(std::size_t depth) {
    if (exhausted) return;
    std::vector<detail::HeapEntry>& list = frames[depth];
    if (list.size() == 1) {
      const double spread = list.front().head;  // normalized: min==0
      if (!found || spread < best_spread) {
        found = true;
        best_spread = spread;
        best_path = path;
      }
      return;
    }
    if (++nodes > budget && found) {
      exhausted = true;
      return;
    }
    // Lower bound: combining can reduce the largest head by at most the sum
    // of all other heads (classic KK bound, generalized).  Even perfect
    // cancellation would leave a spread >= incumbent.
    if (found &&
        list.front().head - detail::other_heads_sum(list) >= best_spread) {
      return;
    }
    const detail::HeapEntry a = detail::pop_entry(list);
    const detail::HeapEntry b = detail::pop_entry(list);
    // One push per level, so the child's seq is n + depth: its row.
    const auto row = static_cast<std::uint32_t>(n + depth);
    for (std::uint32_t shift = 0; shift < m; ++shift) {
      arena.combine_values(row, a.row, b.row, [this, shift](std::size_t i) {
        return detail::shifted_reverse(m, shift, i);
      });
      std::vector<detail::HeapEntry>& child = frames[depth + 1];
      child.assign(list.begin(), list.end());
      detail::push_entry(child, {arena.head(row), row, row});
      path[depth] = shift;
      dfs(depth + 1);
      if (exhausted) return;
    }
  }
};

}  // namespace

Schedule CkkScheduling::schedule(const SchedulingProblem& problem,
                                 Rng& /*rng*/) const {
  problem.validate();
  Schedule out;
  if (problem.instance_count == 1) {
    out.instance_of.assign(problem.request_count(), 0);
    out.work = problem.request_count();
    return out;
  }
  const std::size_t n = problem.request_count();
  KkWorkspace workspace;
  detail::KkArena arena(problem, n - 1, workspace);
  arena.rank_heap();
  const std::size_t m = problem.instance_count;
  CkkSearch search(arena, n, m, options_.node_budget);
  search.dfs(0);
  NFV_CHECK(search.found);
  arena.assignment(arena.reduce([&](std::size_t step, std::size_t i) {
                     return detail::shifted_reverse(m, search.best_path[step],
                                                    i);
                   }),
                   out.instance_of);
  out.work = search.nodes;
  out.validate(problem);
  return out;
}

}  // namespace nfv::sched
