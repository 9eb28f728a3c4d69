// Microbenchmarks for regression tracking (not a paper figure): raw
// algorithm throughput on the hot paths plus the parallel speedup of the
// Monte-Carlo joint pipeline.
//
//   bench_micro --reps 5 --threads 4 --json micro.json
//
// Every row pairs a wall-clock measurement (`wall_us`, noisy across
// machines — CI diffs it with a generous threshold) with a deterministic
// work counter (`work`, bit-identical for any thread count — CI diffs it
// exactly).  The JSON lands in the "nfvpr.bench/1" schema, so
// `nfvpr report --in new.json --baseline bench/baselines/micro.json`
// flags changed answers and timing regressions.
#include <chrono>
#include <cstdio>

#include "harness.h"
#include "nfv/common/cli.h"
#include "nfv/common/rng.h"
#include "nfv/common/table.h"
#include "nfv/core/joint_optimizer.h"
#include "nfv/placement/algorithm.h"
#include "nfv/placement/lp_round.h"
#include "nfv/scheduling/algorithm.h"
#include "nfv/scheduling/migration.h"
#include "nfv/workload/generator.h"

namespace {

using Clock = std::chrono::steady_clock;

/// Mean wall-clock microseconds per call over `reps` calls.
template <typename F>
double wall_us(std::int64_t reps, F&& f) {
  const auto start = Clock::now();
  for (std::int64_t r = 0; r < reps; ++r) f();
  const auto stop = Clock::now();
  return std::chrono::duration<double, std::micro>(stop - start).count() /
         static_cast<double>(reps);
}

nfv::placement::PlacementProblem placement_instance(std::uint32_t vnfs,
                                                    std::size_t nodes,
                                                    std::uint64_t seed) {
  nfv::Rng rng(seed);
  nfv::placement::PlacementProblem p;
  for (std::size_t v = 0; v < nodes; ++v) {
    p.capacities.push_back(rng.uniform(1000.0, 5000.0));
  }
  const double per_vnf = 0.55 * p.total_capacity() / static_cast<double>(vnfs);
  for (std::uint32_t f = 0; f < vnfs; ++f) {
    p.demands.push_back(rng.uniform(0.5, 1.5) * per_vnf);
  }
  std::vector<std::uint32_t> chain(vnfs);
  for (std::uint32_t f = 0; f < vnfs; ++f) chain[f] = f;
  p.chains.push_back(chain);
  return p;
}

nfv::sched::SchedulingProblem scheduling_instance(std::size_t n,
                                                  std::uint32_t m,
                                                  std::uint64_t seed) {
  nfv::Rng rng(seed);
  nfv::sched::SchedulingProblem p;
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    p.arrival_rates.push_back(rng.uniform(1.0, 100.0));
    total += p.arrival_rates.back();
  }
  p.instance_count = m;
  p.delivery_prob = 0.98;
  p.service_rate = 1.2 * total / m;
  return p;
}

/// The shape the serve engine re-solves on every rebalance of the
/// perfbench crowd workload: ~124 members on 20 instances, with
/// per-request delivery probabilities.
nfv::sched::SchedulingProblem serve_shape_instance(std::uint64_t seed) {
  auto problem = scheduling_instance(124, 20, seed);
  nfv::Rng prng(seed + 2);
  for (std::size_t i = 0; i < problem.request_count(); ++i) {
    problem.delivery_probs.push_back(prng.uniform(0.9, 1.0));
  }
  return problem;
}

}  // namespace

int main(int argc, char** argv) {
  nfv::CliParser cli("bench_micro",
                     "hot-path microbenchmarks (nfvpr.bench/1 JSON)");
  const auto& reps = cli.add_int("reps", 'r', "repetitions per case", 5);
  const auto& threads =
      cli.add_int("threads", 'j', "fan-out width for the _par cases", 4);
  const auto& seed = cli.add_int("seed", 's', "base RNG seed", 42);
  const auto& json = cli.add_string("json", '\0', "write JSON table here", "");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 2;
  if (reps < 1 || threads < 1) {
    std::fputs("bench_micro: --reps and --threads must be >= 1\n", stderr);
    return 2;
  }
  const auto base_seed = static_cast<std::uint64_t>(seed);

  nfv::Table table({"case", "threads", "reps", "wall_us", "work"});
  table.set_precision(1);

  // BFDSU multi-start placement on one coarse instance.
  {
    const auto algo = nfv::placement::make_placement_algorithm("BFDSU");
    const auto problem = placement_instance(30, 30, base_seed);
    std::uint64_t work = 0;  // per-call, identical every rep
    const double us = wall_us(reps, [&] {
      nfv::Rng rng(base_seed + 1);
      work = algo->place(problem, rng).iterations;
    });
    table.add_row({std::string("bfdsu_place"), 1LL, static_cast<long long>(reps), us,
                   static_cast<long long>(work)});
  }

  // RCKK differencing at the paper's largest request count.
  {
    const auto algo = nfv::sched::make_scheduling_algorithm("RCKK");
    const auto problem = scheduling_instance(1000, 5, base_seed);
    std::uint64_t work = 0;
    const double us = wall_us(reps, [&] {
      nfv::Rng rng(base_seed + 1);
      work = algo->schedule(problem, rng).work;
    });
    table.add_row({std::string("rckk_schedule"), 1LL, static_cast<long long>(reps), us,
                   static_cast<long long>(work)});
  }

  // Context building: one sweep over a wide workload (many requests per
  // VNF); work counts the member slots produced.
  {
    nfv::workload::WorkloadConfig cfg;
    cfg.vnf_count = 50;
    cfg.request_count = 5000;
    cfg.chain_template_count = 64;
    nfv::Rng rng(base_seed);
    const auto w = nfv::workload::WorkloadGenerator(cfg).generate(rng);
    std::uint64_t work = 0;
    const double us = wall_us(reps, [&] {
      const auto contexts = nfv::core::make_scheduling_contexts(w);
      work = 0;
      for (const auto& ctx : contexts) work += ctx.members.size();
    });
    table.add_row({std::string("contexts"), 1LL, static_cast<long long>(reps), us,
                   static_cast<long long>(work)});
  }

  // Monte-Carlo joint pipeline, serial vs. fanned out.  The summaries are
  // bit-identical by construction, so `work` (feasible runs, scaled) must
  // match between the two rows — CI catches determinism breaks for free.
  nfv::bench::JointScenario scenario;
  scenario.runs = 20;
  scenario.base_seed = base_seed;
  std::vector<std::uint32_t> widths = {1};
  if (threads > 1) widths.push_back(static_cast<std::uint32_t>(threads));
  for (const std::uint32_t t : widths) {
    scenario.threads = t;
    std::uint64_t work = 0;
    const double us = wall_us(reps, [&] {
      const auto summary = nfv::bench::run_joint(scenario, "BFDSU", "RCKK");
      work = summary.feasible_runs;
    });
    table.add_row({t == 1 ? std::string("joint_serial")
                          : std::string("joint_par"),
                   static_cast<long long>(t), static_cast<long long>(reps), us,
                   static_cast<long long>(work)});
  }

  // RCKK at the serve re-solve shape.  Appended last so the rows above
  // keep their positions in the committed baseline.
  {
    const auto algo = nfv::sched::make_scheduling_algorithm("RCKK");
    const auto problem = serve_shape_instance(base_seed);
    std::uint64_t work = 0;
    const double us = wall_us(reps * 100, [&] {
      nfv::Rng rng(base_seed + 1);
      work = algo->schedule(problem, rng).work;
    });
    table.add_row({std::string("rckk_serve_shape"), 1LL,
                   static_cast<long long>(reps * 100), us,
                   static_cast<long long>(work)});
  }

  // LP-relaxation placement at the Sec. V-A maximum shape (50 nodes, 30
  // VNFs) and the portfolio's default 240 subgradient steps; work counts
  // the steps.  Appended last, like the row above.
  {
    const nfv::placement::LpRoundPlacement algo;
    const auto problem = placement_instance(30, 50, base_seed);
    std::uint64_t work = 0;
    const double us = wall_us(reps * 10, [&] {
      nfv::Rng rng(base_seed + 1);
      work = algo.place(problem, rng).iterations;
    });
    table.add_row({std::string("lp_place"), 1LL,
                   static_cast<long long>(reps * 10), us,
                   static_cast<long long>(work)});
  }

  // The bounded-migration plan that follows each serve re-solve: the same
  // shape, a live assignment drawn uniformly, RCKK's schedule as the
  // target and the serve default of K = 4 moves, on one reused workspace
  // as serve keeps it; work counts the moves.  Appended last, like the
  // rows above.
  {
    const auto problem = serve_shape_instance(base_seed);
    nfv::sched::Schedule target;
    nfv::sched::KkWorkspace kk;
    nfv::sched::rckk_schedule(problem, kk, target);
    std::vector<std::uint32_t> current;
    nfv::Rng crng(base_seed + 3);
    for (std::size_t i = 0; i < problem.request_count(); ++i) {
      current.push_back(static_cast<std::uint32_t>(
          crng.uniform_int(0, problem.instance_count - 1)));
    }
    nfv::sched::MigrationWorkspace workspace;
    nfv::sched::MigrationPlan plan;
    const double us = wall_us(reps * 100, [&] {
      nfv::sched::plan_bounded_migration(problem, current, target, 4, 0.0,
                                         workspace, plan);
    });
    table.add_row({std::string("migration_serve_shape"), 1LL,
                   static_cast<long long>(reps * 100), us,
                   static_cast<long long>(plan.moves.size())});
  }

  std::fputs(table.markdown().c_str(), stdout);
  nfv::bench::write_table_json(table, "micro", json);
  return 0;
}
