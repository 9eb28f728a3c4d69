// Internal machinery shared by the Karmarkar-Karp family (RCKK, forward KK,
// CKK): the Partition_list of Algorithm 2 laid out in one flat arena.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "nfv/scheduling/problem.h"
#include "nfv/scheduling/workspace.h"

namespace nfv::sched::detail {

/// std:: heap algorithms keep the *largest* element (by this "less than")
/// at the front, so the list pops by head descending.  An earlier seq wins
/// among equal heads: like a sorted list that inserts a new partition
/// *after* existing equal heads, ties break FIFO.  (head, seq) is a total
/// order, so every heap over the same entries pops the same sequence.
struct Before {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.head != b.head) return a.head < b.head;
    return a.seq > b.seq;
  }
};

inline HeapEntry pop_entry(std::vector<HeapEntry>& heap) {
  std::pop_heap(heap.begin(), heap.end(), Before{});
  const HeapEntry top = heap.back();
  heap.pop_back();
  return top;
}

inline void push_entry(std::vector<HeapEntry>& heap, HeapEntry entry) {
  heap.push_back(entry);
  std::push_heap(heap.begin(), heap.end(), Before{});
}

/// Sum of every head except the largest — the CKK pruning bound.  Summed
/// in heap-array order, which the std:: heap algorithms fix exactly.
[[nodiscard]] inline double other_heads_sum(const std::vector<HeapEntry>& heap) {
  double sum = 0.0;
  for (std::size_t i = 1; i < heap.size(); ++i) sum += heap[i].head;
  return sum;
}

/// CKK's pairing family: position i of the first partition meets position
/// (m-1-i+shift) mod m of the second.  shift 0 is RCKK's reverse combine.
[[nodiscard]] inline std::size_t shifted_reverse(std::size_t m,
                                                 std::size_t shift,
                                                 std::size_t i) {
  const std::size_t j = m - 1 - i + shift;
  return j >= m ? j - m : j;
}

/// Every partition of one KK run in a flat arena.  A partition is a row of
/// m values (descending, normalized so the last is 0).  Request rows
/// 0..n-1 also carry, per position, the set of requests whose rates sum to
/// that value, as a (head, tail) span of one shared `next` list — so
/// merging two sets is an O(1) splice.  Combines write in place.  The
/// storage belongs to the caller's KkWorkspace, so a run allocates only
/// when the workspace has never held a problem this large.
class KkArena {
 public:
  /// Line 1 of Algorithm 2: row r is (λ_r/P_r, 0, ..., 0) with set {r} at
  /// position 0, and the heap holds one entry per request with seq = r.
  /// Under (head, seq) that pops in descending effective-rate order, ties
  /// to the lower index — the order of a stable sort — and every entry
  /// pushed later has a larger seq, so RCKK and forward KK pop exactly the
  /// sequence of the sorted list.  `scratch_rows` value-only rows follow
  /// the request rows (CKK's per-depth children).
  KkArena(const SchedulingProblem& problem, std::size_t scratch_rows,
          KkWorkspace& storage)
      : m_(problem.instance_count),
        values_(storage.values),
        sets_(storage.sets),
        next_(storage.next),
        heap_(storage.heap) {
    const std::size_t n = problem.request_count();
    values_.assign((n + scratch_rows) * m_, 0.0);
    sets_.assign(n * m_, SetSpan{});
    next_.assign(n, kNoRequest);
    heap_.clear();
    heap_.reserve(n);
    for (std::uint32_t r = 0; r < n; ++r) {
      values_[r * m_] = problem.effective_rate(r);
      sets_[r * m_] = SetSpan{r, r};
      heap_.push_back(HeapEntry{values_[r * m_], r, r});
    }
    std::make_heap(heap_.begin(), heap_.end(), Before{});
  }
  KkArena(const KkArena&) = delete;
  KkArena& operator=(const KkArena&) = delete;

  /// Re-lays the initial heap as a stable descending sort (seq = rank)
  /// followed by make_heap.  The pop order does not change, but CKK's
  /// other_heads_sum sums in heap-array order, so CKK needs this exact
  /// layout to stay bit-identical to the sorted Partition_list.
  void rank_heap() {
    std::sort(heap_.begin(), heap_.end(),
              [](const HeapEntry& a, const HeapEntry& b) {
                if (a.head != b.head) return a.head > b.head;
                return a.row < b.row;
              });
    for (std::uint32_t i = 0; i < heap_.size(); ++i) heap_[i].seq = i;
    std::make_heap(heap_.begin(), heap_.end(), Before{});
  }

  [[nodiscard]] const std::vector<HeapEntry>& heap() const { return heap_; }
  [[nodiscard]] double head(std::uint32_t row) const {
    return values_[row * m_];
  }

  /// Writes the combine of rows a and b into row dst, values only (lines
  /// 3-5): position i is a_i + b_{perm(i)}, then a stable descending sort,
  /// then the last value is subtracted from every position.  dst may be a.
  template <typename Perm>
  void combine_values(std::uint32_t dst, std::uint32_t a, std::uint32_t b,
                      Perm perm) {
    combine<false>(dst, a, b, perm);
  }

  /// Runs lines 2-7 on the heap: pops the two largest heads, combines the
  /// second into the first's row in place with pairing perm(step, i),
  /// sets spliced along, and pushes the result until one partition is
  /// left.  Returns its row.
  template <typename Perm>
  std::uint32_t reduce(Perm perm) {
    auto seq = static_cast<std::uint32_t>(heap_.size());
    for (std::size_t step = 0; heap_.size() > 1; ++step) {
      const HeapEntry a = pop_entry(heap_);
      const HeapEntry b = pop_entry(heap_);
      combine<true>(a.row, a.row, b.row,
                    [&](std::size_t i) { return perm(step, i); });
      push_entry(heap_, HeapEntry{head(a.row), seq++, a.row});
    }
    return heap_.front().row;
  }

  /// Lines 8-10: the instance of every request in request row `row`,
  /// written into `instance_of` (resized to n).
  void assignment(std::uint32_t row,
                  std::vector<std::uint32_t>& instance_of) const {
    instance_of.assign(next_.size(), 0);
    for (std::uint32_t k = 0; k < m_; ++k) {
      for (std::uint32_t r = sets_[row * m_ + k].head; r != kNoRequest;
           r = next_[r]) {
        instance_of[r] = k;
      }
    }
  }

 private:
  void splice(SetSpan& into, const SetSpan& from) {
    if (from.head == kNoRequest) return;
    if (into.head == kNoRequest) {
      into = from;
      return;
    }
    next_[into.tail] = from.head;
    into.tail = from.tail;
  }

  template <bool kSets, typename Perm>
  void combine(std::uint32_t dst, std::uint32_t a, std::uint32_t b,
               Perm perm) {
    double* v = values_.data() + dst * m_;
    const double* av = values_.data() + a * m_;
    const double* bv = values_.data() + b * m_;
    SetSpan* s = kSets ? sets_.data() + a * m_ : nullptr;
    const SetSpan* bs = kSets ? sets_.data() + b * m_ : nullptr;
    for (std::size_t i = 0; i < m_; ++i) {
      const std::size_t j = perm(i);
      v[i] = av[i] + bv[j];
      if constexpr (kSets) splice(s[i], bs[j]);
    }
    // Stable insertion sort, descending: a position moves only past
    // strictly smaller values, so equal values keep their order.
    for (std::size_t i = 1; i < m_; ++i) {
      const double x = v[i];
      SetSpan sx;
      if constexpr (kSets) sx = s[i];
      std::size_t k = i;
      for (; k > 0 && v[k - 1] < x; --k) {
        v[k] = v[k - 1];
        if constexpr (kSets) s[k] = s[k - 1];
      }
      v[k] = x;
      if constexpr (kSets) s[k] = sx;
    }
    // Normalize: the offsets discarded here are equal across positions,
    // so the relative balance — all any later combine needs — is kept.
    const double base = v[m_ - 1];
    for (std::size_t i = 0; i < m_; ++i) v[i] -= base;
  }

  std::size_t m_;
  std::vector<double>& values_;        // rows × m
  std::vector<SetSpan>& sets_;         // request rows × m
  std::vector<std::uint32_t>& next_;   // request → next in its set
  std::vector<HeapEntry>& heap_;       // the Partition_list
};

}  // namespace nfv::sched::detail
