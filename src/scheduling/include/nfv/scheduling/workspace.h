// Caller-owned scratch for the scheduling entry points that a caller runs
// many times in a row (the serving engine's rebalance: one RCKK re-solve
// plus one bounded-migration plan per touched VNF per event).  Every
// buffer keeps its capacity between calls, so once a workspace has seen a
// problem of a given size, rckk_schedule and plan_bounded_migration run
// on it without touching the heap.  A workspace carries no state from one
// call to the next: every call overwrites what it reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace nfv::sched {

namespace detail {

inline constexpr std::uint32_t kNoRequest =
    std::numeric_limits<std::uint32_t>::max();

/// A Partition_list entry: the partition held in arena row `row`, keyed by
/// its leading (largest) value and its insertion sequence.
struct HeapEntry {
  double head = 0.0;
  std::uint32_t seq = 0;
  std::uint32_t row = 0;
};

/// The requests whose rates sum to one arena value, as a (head, tail) span
/// of the arena's shared `next` list.
struct SetSpan {
  std::uint32_t head = kNoRequest;
  std::uint32_t tail = kNoRequest;
};

/// A (target part, live instance) pair with non-zero overlap.
struct OverlapCell {
  double overlap = 0.0;
  std::uint32_t part = 0;
  std::uint32_t instance = 0;
};

/// A mismatched request and its effective rate.
struct RankedRequest {
  double rate = 0.0;
  std::size_t request = 0;
};

}  // namespace detail

/// Storage of one Karmarkar-Karp arena (src/scheduling/src/kk_util.h).
struct KkWorkspace {
  std::vector<double> values;           ///< rows × m partition values
  std::vector<detail::SetSpan> sets;    ///< request rows × m set spans
  std::vector<std::uint32_t> next;      ///< request → next in its set
  std::vector<detail::HeapEntry> heap;  ///< the Partition_list
};

/// Scratch of the bounded-migration planner.
struct MigrationWorkspace {
  std::vector<double> overlap;  ///< parts × instances effective load
  std::vector<detail::OverlapCell> cells;
  std::vector<std::uint32_t> instance_of_part;
  std::vector<double> load;
  std::vector<detail::RankedRequest> mismatched;
};

}  // namespace nfv::sched
