// Forward multi-way Karmarkar-Karp: identical to RCKK except positions are
// combined largest-with-largest.  Ablation for the paper's reverse-order
// design choice (Sec. IV-C: "we attempt to combine two normalized
// partitions in reverse order").
#include "nfv/scheduling/algorithm.h"
#include "kk_util.h"

namespace nfv::sched {

Schedule KkForwardScheduling::schedule(const SchedulingProblem& problem,
                                       Rng& /*rng*/) const {
  problem.validate();
  Schedule out;
  if (problem.instance_count == 1) {
    out.instance_of.assign(problem.request_count(), 0);
    out.work = problem.request_count();
    return out;
  }
  KkWorkspace workspace;
  detail::KkArena arena(problem, 0, workspace);
  arena.assignment(arena.reduce([](std::size_t, std::size_t i) { return i; }),
                   out.instance_of);
  out.work = problem.request_count() - 1;
  out.validate(problem);
  return out;
}

}  // namespace nfv::sched
