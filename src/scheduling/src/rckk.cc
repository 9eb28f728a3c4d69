// RCKK — Algorithm 2 of the paper, verbatim: reverse-order m-way
// Karmarkar-Karp differencing with request-set tracking.
#include "nfv/obs/metrics.h"
#include "nfv/obs/trace.h"
#include "nfv/scheduling/algorithm.h"
#include "kk_util.h"

namespace nfv::sched {

void rckk_schedule(const SchedulingProblem& problem, KkWorkspace& workspace,
                   Schedule& out) {
  const obs::ScopedSpan span("sched.rckk.schedule");
  problem.validate();
  if (problem.instance_count == 1) {
    out.instance_of.assign(problem.request_count(), 0);
    out.work = problem.request_count();
    obs::count("sched.rckk.runs");
    obs::count("sched.rckk.combines", out.work);
    return;
  }
  // Lines 2-6: combine the two partitions with the largest leading values
  // in reverse order, normalize, reinsert.
  detail::KkArena arena(problem, 0, workspace);
  const std::size_t m = problem.instance_count;
  arena.assignment(
      arena.reduce([m](std::size_t, std::size_t i) { return m - 1 - i; }),
      out.instance_of);
  out.work = problem.request_count() - 1;
  out.validate(problem);
  obs::count("sched.rckk.runs");
  obs::count("sched.rckk.combines", out.work);
}

Schedule RckkScheduling::schedule(const SchedulingProblem& problem,
                                  Rng& /*rng*/) const {
  KkWorkspace workspace;
  Schedule out;
  rckk_schedule(problem, workspace, out);
  return out;
}

}  // namespace nfv::sched
