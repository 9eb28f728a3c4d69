// The flat-arena KK core must reproduce the original vector-of-vectors
// Partition_list exactly.  The old representation lives on here as the
// executable specification: Partition (m values + m request sets),
// combine (merge, std::stable_sort, normalize), insert_sorted (the sorted
// list, O(n) per insert) and PartitionHeap (the same list as a heap).
// RCKK, forward KK and CKK written over the spec must give the same
// instance_of and work as the arena-backed algorithms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "kk_util.h"
#include "nfv/common/rng.h"
#include "nfv/scheduling/algorithm.h"

namespace nfv::sched {
namespace {

// ---- Executable specification: the pre-arena Partition_list ----------

struct Partition {
  std::vector<double> values;                    // size m, descending
  std::vector<std::vector<std::uint32_t>> sets;  // size m
  [[nodiscard]] double head() const { return values.front(); }
};

std::vector<Partition> initial_partitions(const SchedulingProblem& problem) {
  const std::uint32_t m = problem.instance_count;
  std::vector<std::uint32_t> order(problem.request_count());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return problem.effective_rate(a) >
                            problem.effective_rate(b);
                   });
  std::vector<Partition> list;
  for (const std::uint32_t r : order) {
    Partition p;
    p.values.assign(m, 0.0);
    p.sets.resize(m);
    p.values[0] = problem.effective_rate(r);
    p.sets[0].push_back(r);
    list.push_back(std::move(p));
  }
  return list;
}

template <typename Perm>
Partition combine(const Partition& a, const Partition& b, Perm perm) {
  const std::size_t m = a.values.size();
  Partition merged;
  merged.values.resize(m);
  merged.sets.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t j = perm(i);
    merged.values[i] = a.values[i] + b.values[j];
    merged.sets[i] = a.sets[i];
    merged.sets[i].insert(merged.sets[i].end(), b.sets[j].begin(),
                          b.sets[j].end());
  }
  std::vector<std::size_t> order(m);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return merged.values[x] > merged.values[y];
                   });
  Partition out;
  out.values.resize(m);
  out.sets.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    out.values[i] = merged.values[order[i]];
    out.sets[i] = std::move(merged.sets[order[i]]);
  }
  const double base = out.values.back();
  for (double& v : out.values) v -= base;
  return out;
}

Partition combine_reverse(const Partition& a, const Partition& b) {
  const std::size_t m = a.values.size();
  return combine(a, b, [m](std::size_t i) { return m - 1 - i; });
}

void insert_sorted(std::vector<Partition>& list, Partition p) {
  const auto pos = std::upper_bound(
      list.begin(), list.end(), p,
      [](const Partition& x, const Partition& y) { return x.head() > y.head(); });
  list.insert(pos, std::move(p));
}

class PartitionHeap {
 public:
  PartitionHeap() = default;
  explicit PartitionHeap(std::vector<Partition> initial) {
    for (Partition& p : initial) {
      entries_.push_back(Entry{std::move(p), next_seq_++});
    }
    std::make_heap(entries_.begin(), entries_.end(), Before{});
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const Partition& top() const { return entries_.front().p; }
  [[nodiscard]] double other_heads_sum() const {
    double sum = 0.0;
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      sum += entries_[i].p.head();
    }
    return sum;
  }
  Partition pop() {
    std::pop_heap(entries_.begin(), entries_.end(), Before{});
    Partition p = std::move(entries_.back().p);
    entries_.pop_back();
    return p;
  }
  void push(Partition p) {
    entries_.push_back(Entry{std::move(p), next_seq_++});
    std::push_heap(entries_.begin(), entries_.end(), Before{});
  }

 private:
  struct Entry {
    Partition p;
    std::uint64_t seq = 0;
  };
  struct Before {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.p.head() != b.p.head()) return a.p.head() < b.p.head();
      return a.seq > b.seq;
    }
  };
  std::vector<Entry> entries_;
  std::uint64_t next_seq_ = 0;
};

std::vector<std::uint32_t> to_assignment(const Partition& p,
                                         std::size_t request_count) {
  std::vector<std::uint32_t> instance_of(request_count, 0);
  for (std::uint32_t k = 0; k < p.sets.size(); ++k) {
    for (const std::uint32_t r : p.sets[k]) instance_of[r] = k;
  }
  return instance_of;
}

/// RCKK (reverse) or forward KK over the spec heap.
template <typename Perm>
Schedule spec_kk(const SchedulingProblem& problem, Perm perm) {
  Schedule out;
  if (problem.instance_count == 1) {
    out.instance_of.assign(problem.request_count(), 0);
    out.work = problem.request_count();
    return out;
  }
  PartitionHeap heap(initial_partitions(problem));
  while (heap.size() > 1) {
    const Partition a = heap.pop();
    const Partition b = heap.pop();
    heap.push(combine(a, b, perm));
    ++out.work;
  }
  out.instance_of = to_assignment(heap.top(), problem.request_count());
  return out;
}

struct SpecCkk {
  std::size_t m = 0;
  std::uint64_t nodes = 0;
  std::uint64_t budget = 0;
  bool exhausted = false;
  double best_spread = 0.0;
  Partition best;

  void dfs(PartitionHeap list) {
    if (exhausted) return;
    if (list.size() == 1) {
      const double spread = list.top().values.front();
      if (best.values.empty() || spread < best_spread) {
        best = list.pop();
        best_spread = spread;
      }
      return;
    }
    if (++nodes > budget && !best.values.empty()) {
      exhausted = true;
      return;
    }
    if (!best.values.empty() &&
        list.top().head() - list.other_heads_sum() >= best_spread) {
      return;
    }
    const Partition a = list.pop();
    const Partition b = list.pop();
    for (std::size_t shift = 0; shift < m; ++shift) {
      PartitionHeap next = list;
      next.push(combine(a, b, [this, shift](std::size_t i) {
        return (m - 1 - i + shift) % m;
      }));
      dfs(std::move(next));
      if (exhausted) return;
    }
  }
};

Schedule spec_ckk(const SchedulingProblem& problem, std::uint64_t budget) {
  Schedule out;
  if (problem.instance_count == 1) {
    out.instance_of.assign(problem.request_count(), 0);
    out.work = problem.request_count();
    return out;
  }
  SpecCkk search;
  search.m = problem.instance_count;
  search.budget = budget;
  search.dfs(PartitionHeap(initial_partitions(problem)));
  out.instance_of = to_assignment(search.best, problem.request_count());
  out.work = search.nodes;
  return out;
}

// ---- Random instances --------------------------------------------------

/// n in [1, max_n], drawn as 1 + (max_n-1)·u^skew (skew 1: uniform), m
/// uniform in [1, max_m]; a third draw tied integer rates, and about half
/// carry per-request delivery probabilities.
SchedulingProblem random_problem(Rng& rng, double max_n, std::int64_t max_m,
                                 double skew) {
  SchedulingProblem p;
  const auto n = 1 + static_cast<std::size_t>(
                         (max_n - 1.0) * std::pow(rng.uniform(0.0, 1.0), skew));
  const bool tied = rng.uniform_int(0, 2) == 0;
  for (std::size_t i = 0; i < n; ++i) {
    p.arrival_rates.push_back(
        tied ? static_cast<double>(rng.uniform_int(1, 4))
             : rng.uniform(1.0, 100.0));
  }
  if (rng.uniform_int(0, 1) == 0) {
    for (std::size_t i = 0; i < n; ++i) {
      p.delivery_probs.push_back(
          tied ? (rng.uniform_int(0, 1) == 0 ? 0.5 : 1.0)
               : rng.uniform(0.9, 1.0));
    }
  } else {
    p.delivery_prob = 0.98;
  }
  p.instance_count = static_cast<std::uint32_t>(rng.uniform_int(1, max_m));
  p.service_rate = 1.2 * p.total_effective_rate() / p.instance_count;
  return p;
}

void expect_same(const Schedule& spec, const Schedule& arena,
                 const char* algo, int round) {
  ASSERT_EQ(arena.instance_of, spec.instance_of) << algo << " round " << round;
  ASSERT_EQ(arena.work, spec.work) << algo << " round " << round;
}

TEST(KkArena, RckkAndForwardKkMatchSpecOnRandomProblems) {
  Rng rng(2024);
  Rng unused(0);
  const RckkScheduling rckk;
  const KkForwardScheduling kk;
  for (int round = 0; round < 2000; ++round) {
    const SchedulingProblem p = random_problem(rng, 300, 40, 1.0);
    const std::size_t m = p.instance_count;
    expect_same(spec_kk(p, [m](std::size_t i) { return m - 1 - i; }),
                rckk.schedule(p, unused), "RCKK", round);
    expect_same(spec_kk(p, [](std::size_t i) { return i; }),
                kk.schedule(p, unused), "KK", round);
  }
}

// The spec CKK copies every partition's request sets at each search node
// — O(nodes · n · m) allocations — so its draws are fewer than RCKK's and
// skewed toward small n (budgets 1 and 64 still reach n = 300, m = 40);
// at budget 4096 the search runs to the budget, so n and m stay small.
void expect_ckk_matches_spec(std::uint64_t budget, int rounds, double max_n,
                             std::int64_t max_m, double skew) {
  Rng rng(7 + budget);
  Rng unused(0);
  const CkkScheduling ckk(CkkScheduling::Options{budget});
  for (int round = 0; round < rounds; ++round) {
    const SchedulingProblem p = random_problem(rng, max_n, max_m, skew);
    expect_same(spec_ckk(p, budget), ckk.schedule(p, unused), "CKK", round);
  }
}

TEST(KkArena, CkkMatchesSpecAtBudget1) {
  expect_ckk_matches_spec(1, 500, 300, 40, 4.0);
}
TEST(KkArena, CkkMatchesSpecAtBudget64) {
  expect_ckk_matches_spec(64, 500, 300, 40, 4.0);
}
TEST(KkArena, CkkMatchesSpecAtBudget4096) {
  expect_ckk_matches_spec(4096, 300, 24, 8, 1.0);
}

// rckk_schedule on one long-lived workspace and output — the serving
// engine's rebalance path — must equal schedule() call for call, while n
// and m grow and shrink: nothing a larger earlier problem left in the
// buffers may leak into a later, smaller one.
TEST(KkArena, ReusedWorkspaceMatchesScheduleAcrossSizes) {
  Rng rng(31);
  Rng unused(0);
  const RckkScheduling rckk;
  KkWorkspace workspace;
  Schedule out;
  for (int round = 0; round < 2000; ++round) {
    // Alternate large and small draws so every buffer shrinks and regrows.
    const double max_n = round % 2 == 0 ? 300.0 : 12.0;
    const std::int64_t max_m = round % 3 == 0 ? 40 : 4;
    const SchedulingProblem p = random_problem(rng, max_n, max_m, 1.0);
    rckk_schedule(p, workspace, out);
    expect_same(rckk.schedule(p, unused), out, "RCKK workspace", round);
    // The value-returning form is the spec-checked path; keep the
    // workspace path pinned to the spec directly as well.
    if (round % 50 == 0) {
      const std::size_t m = p.instance_count;
      expect_same(spec_kk(p, [m](std::size_t i) { return m - 1 - i; }), out,
                  "RCKK workspace vs spec", round);
    }
  }
}

TEST(KkArena, WorkspaceHoldsNoStateBetweenCalls) {
  // The same problem solved on a fresh workspace and on one that just
  // solved a much larger problem gives the same schedule, and a
  // single-instance problem resets the output too.
  Rng rng(5);
  SchedulingProblem big;
  for (int i = 0; i < 200; ++i) {
    big.arrival_rates.push_back(rng.uniform(1.0, 100.0));
  }
  big.instance_count = 30;
  big.service_rate = 1.2 * big.total_effective_rate() / 30;
  SchedulingProblem small;
  small.arrival_rates = {7.0, 3.0, 5.0, 5.0};
  small.delivery_probs = {1.0, 0.5, 1.0, 0.5};
  small.instance_count = 2;
  small.service_rate = 100.0;
  SchedulingProblem single = small;
  single.instance_count = 1;

  KkWorkspace fresh;
  Schedule want;
  rckk_schedule(small, fresh, want);

  KkWorkspace reused;
  Schedule got;
  rckk_schedule(big, reused, got);
  rckk_schedule(small, reused, got);
  EXPECT_EQ(got.instance_of, want.instance_of);
  EXPECT_EQ(got.work, want.work);
  rckk_schedule(single, reused, got);
  EXPECT_EQ(got.instance_of, std::vector<std::uint32_t>(4, 0));
  EXPECT_EQ(got.work, 4u);
}

TEST(KkArena, InitialHeapPopsFifoAmongEqualRates) {
  // Equal effective rates (λ/P = 10 for all three) pop in request-index
  // order, exactly like the stable-sorted initial list.
  SchedulingProblem p;
  p.arrival_rates = {5.0, 10.0, 5.0};
  p.delivery_probs = {0.5, 1.0, 0.5};
  p.instance_count = 2;
  p.service_rate = 100.0;
  KkWorkspace workspace;
  detail::KkArena arena(p, 0, workspace);
  std::vector<detail::HeapEntry> heap = arena.heap();
  EXPECT_EQ(detail::pop_entry(heap).row, 0u);
  EXPECT_EQ(detail::pop_entry(heap).row, 1u);
  EXPECT_EQ(detail::pop_entry(heap).row, 2u);
  // Pushes of equal heads also pop FIFO, after the earlier sequences.
  detail::push_entry(heap, {3.0, 9, 1});
  detail::push_entry(heap, {3.0, 4, 2});
  detail::push_entry(heap, {3.0, 7, 0});
  EXPECT_EQ(detail::pop_entry(heap).seq, 4u);
  EXPECT_EQ(detail::pop_entry(heap).seq, 7u);
  EXPECT_EQ(detail::pop_entry(heap).seq, 9u);
}

TEST(KkArena, OtherHeadsSumExcludesTop) {
  std::vector<detail::HeapEntry> heap;
  std::uint32_t seq = 0;
  for (const double v : {4.0, 1.0, 2.5}) {
    detail::push_entry(heap, {v, seq, seq});
    ++seq;
  }
  EXPECT_DOUBLE_EQ(heap.front().head, 4.0);
  EXPECT_DOUBLE_EQ(detail::other_heads_sum(heap), 3.5);
}

TEST(KkArena, ShiftedReverseCoversEveryRotation) {
  for (std::size_t m = 1; m <= 6; ++m) {
    for (std::size_t shift = 0; shift < m; ++shift) {
      for (std::size_t i = 0; i < m; ++i) {
        EXPECT_EQ(detail::shifted_reverse(m, shift, i), (m - 1 - i + shift) % m);
      }
    }
  }
}

// ---- The spec against itself: the heap is the sorted list -------------

SchedulingProblem small_problem(Rng& rng, std::size_t n, std::uint32_t m) {
  SchedulingProblem p;
  for (std::size_t i = 0; i < n; ++i) {
    p.arrival_rates.push_back(rng.uniform(1.0, 100.0));
  }
  p.instance_count = m;
  p.delivery_prob = 0.98;
  p.service_rate = 1.2 * 50.0 * static_cast<double>(n) / m;
  return p;
}

Partition list_pop(std::vector<Partition>& list) {
  Partition p = std::move(list.front());
  list.erase(list.begin());
  return p;
}

TEST(PartitionHeap, MatchesInsertSortedPopOrderOnRandomInstances) {
  Rng rng(11);
  for (int round = 0; round < 20; ++round) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 42));
    const auto m = static_cast<std::uint32_t>(rng.uniform_int(2, 7));
    const SchedulingProblem problem = small_problem(rng, n, m);

    std::vector<Partition> list = initial_partitions(problem);
    PartitionHeap heap{initial_partitions(problem)};
    while (list.size() > 1) {
      ASSERT_EQ(heap.size(), list.size());
      const Partition la = list_pop(list);
      const Partition lb = list_pop(list);
      const Partition ha = heap.pop();
      const Partition hb = heap.pop();
      ASSERT_EQ(ha.values, la.values);
      ASSERT_EQ(ha.sets, la.sets);
      ASSERT_EQ(hb.values, lb.values);
      ASSERT_EQ(hb.sets, lb.sets);
      insert_sorted(list, combine_reverse(la, lb));
      heap.push(combine_reverse(ha, hb));
    }
    EXPECT_EQ(to_assignment(heap.top(), problem.request_count()),
              to_assignment(list.front(), problem.request_count()));
  }
}

TEST(PartitionHeap, FifoTieBreakAmongEqualHeads) {
  // Three equal-rate requests: insert_sorted places later arrivals after
  // earlier ones, so the pop order is insertion order.  The heap must do
  // the same even though a plain max-heap would be free to reorder ties.
  SchedulingProblem p;
  p.arrival_rates = {5.0, 5.0, 5.0};
  p.instance_count = 2;
  p.delivery_prob = 1.0;
  p.service_rate = 100.0;
  PartitionHeap heap{initial_partitions(p)};
  EXPECT_EQ(heap.pop().sets[0], std::vector<std::uint32_t>{0});
  EXPECT_EQ(heap.pop().sets[0], std::vector<std::uint32_t>{1});
  EXPECT_EQ(heap.pop().sets[0], std::vector<std::uint32_t>{2});
  // Pushes of equal heads also pop FIFO.
  Partition a;
  a.values = {3.0, 0.0};
  a.sets = {{7}, {}};
  Partition b;
  b.values = {3.0, 0.0};
  b.sets = {{9}, {}};
  heap.push(a);
  heap.push(b);
  EXPECT_EQ(heap.pop().sets[0], std::vector<std::uint32_t>{7});
  EXPECT_EQ(heap.pop().sets[0], std::vector<std::uint32_t>{9});
}

TEST(PartitionHeap, OtherHeadsSumExcludesTop) {
  PartitionHeap heap;
  for (const double v : {4.0, 1.0, 2.5}) {
    Partition p;
    p.values = {v, 0.0};
    p.sets = {{0}, {}};
    heap.push(p);
  }
  EXPECT_DOUBLE_EQ(heap.top().head(), 4.0);
  EXPECT_DOUBLE_EQ(heap.other_heads_sum(), 3.5);
}

TEST(PartitionHeap, CopyKeepsIndependentState) {
  // The spec CKK copies the heap at every branch; the copy must not share
  // seq state or entries with the original.
  SchedulingProblem p;
  p.arrival_rates = {9.0, 7.0, 3.0};
  p.instance_count = 2;
  p.delivery_prob = 1.0;
  p.service_rate = 100.0;
  PartitionHeap heap{initial_partitions(p)};
  PartitionHeap copy = heap;
  const Partition a = copy.pop();
  const Partition b = copy.pop();
  copy.push(combine_reverse(a, b));
  EXPECT_EQ(heap.size(), 3u);
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_DOUBLE_EQ(heap.top().head(), 9.0);
}

}  // namespace
}  // namespace nfv::sched
