// Internal machinery shared by the Karmarkar-Karp family (RCKK, forward KK,
// CKK): the Partition_list of Algorithm 2 laid out in one flat arena.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "nfv/common/error.h"
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
/// Partition_list is the ranked run of never-combined request rows plus a
/// heap of the combined ones.  The storage belongs to the caller's
/// KkWorkspace, so a run allocates only when the workspace has never held
/// a problem this large.
class KkArena {
 public:
  /// Line 1 of Algorithm 2: row r is (λ_r/P_r, 0, ..., 0) with set {r} at
  /// position 0.  The never-combined rows form the run: entries (head,
  /// seq = r, row = r) sorted once by head descending, ties to the lower
  /// index — the stable sort of the paper's initial list.  The heap starts
  /// empty and holds only combined rows, whose seqs start at n.
  /// `scratch_rows` value-only rows follow the request rows (CKK's
  /// per-depth children).
  KkArena(const SchedulingProblem& problem, std::size_t scratch_rows,
          KkWorkspace& storage)
      : m_(problem.instance_count),
        values_(storage.values),
        sets_(storage.sets),
        next_(storage.next),
        run_(storage.run),
        heap_(storage.heap) {
    const std::size_t n = problem.request_count();
    values_.assign((n + scratch_rows) * m_, 0.0);
    sets_.assign(n * m_, SetSpan{});
    next_.assign(n, kNoRequest);
    run_.resize(n);
    for (std::uint32_t r = 0; r < n; ++r) {
      values_[r * m_] = problem.effective_rate(r);
      sets_[r * m_] = SetSpan{r, r};
      run_[r] = HeapEntry{values_[r * m_], r, r};
    }
    // (head, seq) is total, so std::sort needs no stability (and, unlike
    // std::stable_sort, no buffer).
    std::sort(run_.begin(), run_.end(),
              [](const HeapEntry& a, const HeapEntry& b) {
                return Before{}(b, a);
              });
    heap_.clear();
    heap_.reserve(n);
  }
  KkArena(const KkArena&) = delete;
  KkArena& operator=(const KkArena&) = delete;

  /// The whole initial Partition_list as one heap in `out`: the run in
  /// order with seq = rank, then make_heap.  The pop order is the run's,
  /// but CKK's other_heads_sum sums in heap-array order, so CKK's search
  /// starts from this exact layout to stay bit-identical to the sorted
  /// Partition_list.
  void rank_heap(std::vector<HeapEntry>& out) const {
    out.assign(run_.begin(), run_.end());
    for (std::uint32_t i = 0; i < out.size(); ++i) out[i].seq = i;
    std::make_heap(out.begin(), out.end(), Before{});
  }

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

  /// Runs lines 2-7: pops the two largest heads, combines the second into
  /// the first's row in place with pairing perm(step, i), sets spliced
  /// along, and pushes the result until one partition is left.  Returns
  /// its row.  Each pop takes the larger of the run's front and the heap's
  /// top under (head, seq), which is what one heap over both would pop.
  /// perm(step, ·) must be an involution (the reverse, forward and shifted
  /// reverse pairings all are), so a never-combined b's head lands at
  /// position perm(step, 0).
  template <typename Perm>
  std::uint32_t reduce(Perm perm) {
    std::size_t front = 0;  // the run's first unpopped entry
    const auto pop = [&](bool& never_combined) {
      never_combined = front < run_.size() &&
                       (heap_.empty() || Before{}(heap_.front(), run_[front]));
      return never_combined ? run_[front++] : pop_entry(heap_);
    };
    auto seq = static_cast<std::uint32_t>(run_.size());
    for (std::size_t step = 0; run_.size() - front + heap_.size() > 1;
         ++step) {
      bool a_fresh = false;
      bool b_fresh = false;
      const HeapEntry a = pop(a_fresh);
      const HeapEntry b = pop(b_fresh);
      const auto pairing = [&](std::size_t i) { return perm(step, i); };
      if (b_fresh) {
        NFV_CHECK(pairing(pairing(0)) == 0);
        add_request_row(a.row, b.row, pairing(0));
      } else {
        combine<true>(a.row, a.row, b.row, pairing);
      }
      push_entry(heap_, HeapEntry{head(a.row), seq++, a.row});
    }
    return front < run_.size() ? run_[front].row : heap_.front().row;
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
    sort_descending<kSets>(v, s, 1);
    // Normalize: the offsets discarded here are equal across positions,
    // so the relative balance — all any later combine needs — is kept.
    const double base = v[m_ - 1];
    for (std::size_t i = 0; i < m_; ++i) v[i] -= base;
  }

  /// The combine of a with a never-combined row b = (x, 0, ..., 0), set
  /// {r} at position 0, where x lands at position p.  Every other
  /// position would add +0.0 to a value that is never -0.0, and a
  /// subtraction of exactly 0.0 changes no value, so this skips both: the
  /// changed values go through the same operations as in combine.  The
  /// positions before p are still sorted, so the sort starts at p.
  void add_request_row(std::uint32_t a, std::uint32_t b, std::size_t p) {
    double* v = values_.data() + a * m_;
    SetSpan* s = sets_.data() + a * m_;
    v[p] = v[p] + values_[b * m_];
    splice(s[p], sets_[b * m_]);
    sort_descending<true>(v, s, p == 0 ? 1 : p);
    const double base = v[m_ - 1];
    if (base == 0.0) return;
    for (std::size_t i = 0; i < m_; ++i) v[i] -= base;
  }

  /// Stable insertion sort, descending, of positions [from, m) into the
  /// sorted prefix: a position moves only past strictly smaller values,
  /// so equal values keep their order.
  template <bool kSets>
  void sort_descending(double* v, SetSpan* s, std::size_t from) const {
    for (std::size_t i = from; i < m_; ++i) {
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
  }

  std::size_t m_;
  std::vector<double>& values_;        // rows × m
  std::vector<SetSpan>& sets_;         // request rows × m
  std::vector<std::uint32_t>& next_;   // request → next in its set
  std::vector<HeapEntry>& run_;        // never-combined rows, ranked
  std::vector<HeapEntry>& heap_;       // combined rows
};

}  // namespace nfv::sched::detail
