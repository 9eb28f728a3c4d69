// offline: the paper's Monte-Carlo protocol (Sec. V-A) as `nfvpr pipeline
// --solver portfolio -j2` runs it — every instance of a seeded batch solved
// by core::PortfolioDriver racing BFDSU, PSO and LP on a 2-thread exec
// pool.  One run:
//
//  1. set-up: generate the batch, start the pool and warm it with one
//     solve per size class (kSetups times in all, the later ones spread
//     over step 3's window; setup_s is the median);
//  2. a check round: solves every instance once, untimed, and checks each
//     result (placement::evaluate, ρ < ρ_max per admitted instance, the
//     portfolio never worse than any backend);
//  3. timed rounds over the whole batch until --seconds have elapsed (at
//     least three); every round must reproduce the check round's winners
//     and objectives.  The timings keep each instance's fastest solve.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "inputs.h"
#include "nfv/core/solver.h"
#include "nfv/exec/thread_pool.h"
#include "nfv/placement/metrics.h"
#include "nfv/placement/problem.h"
#include "nfv/scheduling/algorithm.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kSetups = 3;
constexpr std::size_t kMinRounds = 3;
constexpr std::uint32_t kThreads = 2;
/// Every kSubsample-th instance feeds the single-backend timings.
constexpr std::size_t kSubsample = 4;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

OfflineShape offline_shape() {
  OfflineShape shape;
  shape.instances = 120;
  return shape;
}

nfv::core::JointConfig joint_config() {
  nfv::core::JointConfig cfg;
  cfg.exec.threads = kThreads;
  return cfg;
}

nfv::core::PortfolioDriver solver_for(const std::string& solver) {
  nfv::core::SolverConfig scfg;
  scfg.solver = solver;
  return nfv::core::PortfolioDriver(joint_config(), scfg);
}

/// Checks one portfolio outcome; returns an empty string when it holds.
std::string check_outcome(const nfv::core::SystemModel& model,
                          const nfv::core::SolverOutcome& race,
                          double rho_max) {
  const nfv::core::JointResult& r = race.result;
  if (!r.feasible) return "infeasible solve";
  const auto problem =
      nfv::placement::make_problem(model.topology, model.workload);
  nfv::placement::PlacementMetrics metrics;
  try {
    metrics = nfv::placement::evaluate(problem, r.placement);
  } catch (const std::exception& e) {
    return std::string("placement::evaluate rejected the placement: ") +
           e.what();
  }
  if (metrics.nodes_in_service != r.placement_metrics.nodes_in_service) {
    return "nodes in service disagree with placement::evaluate";
  }
  for (std::size_t f = 0; f < r.contexts.size(); ++f) {
    const auto& problem_f = r.contexts[f].problem;
    std::vector<double> load(problem_f.instance_count, 0.0);
    for (std::size_t q = 0; q < problem_f.request_count(); ++q) {
      if (!r.admissions[f].admitted[q]) continue;
      load[r.schedules[f].instance_of[q]] += problem_f.effective_rate(q);
    }
    for (const double l : load) {
      if (l / problem_f.service_rate >= rho_max) {
        return "an admitted instance has rho >= rho_max";
      }
    }
  }
  const nfv::core::BackendRun* winner = nullptr;
  for (const auto& b : race.backends) {
    if (b.id == race.winner) winner = &b;
  }
  if (winner == nullptr || winner->objective != r.total_latency) {
    return "winner entry does not match the returned result";
  }
  for (const auto& b : race.backends) {
    const bool worse =
        b.feasible && (b.rejected < winner->rejected ||
                       (b.rejected == winner->rejected &&
                        b.objective < winner->objective));
    if (worse) return "portfolio objective exceeds backend " + b.id;
  }
  return {};
}

}  // namespace

RunResult run_offline(const RunOptions& opt) {
  RunResult out;
  SpanRecorder* spans = opt.traced ? &out.spans : nullptr;
  Report& rep = out.report;
  const auto fail = [&](const std::string& what) {
    out.failures.push_back("offline: " + what);
  };
  const auto run_start = Clock::now();
  const double rho_max = joint_config().rho_max;
  const auto portfolio = solver_for("portfolio");

  // --- 1. set-up -------------------------------------------------------
  // Once here; the later kSetups - 1 set-ups are spread over the timed
  // window, so a change in the host's speed moves some samples, not all.
  std::vector<double> setup_s, generate_s;
  std::optional<OfflineInputs> in;
  std::optional<nfv::exec::ScopedPool> scope;
  std::optional<nfv::exec::ThreadPool> pool;
  std::uint64_t digest = 0;
  const auto set_up = [&] {
    scope.reset();
    pool.reset();
    in.reset();
    const auto t0 = Clock::now();
    {
      ScopedSpan span(spans, "workload.generate", "workload");
      in.emplace(make_offline_inputs(offline_shape(), opt.seed));
    }
    const auto t1 = Clock::now();
    pool.emplace(kThreads);
    scope.emplace(*pool);
    {
      // Warm the pool, allocator and caches on every size class: one
      // solve per kSubsample * 2 instances across the batch.
      ScopedSpan span(spans, "core.warmup", "core");
      for (std::size_t i = 0; i < in->models.size(); i += 2 * kSubsample) {
        (void)portfolio.run(in->models[i], in->solve_seeds[i]);
      }
    }
    const auto t2 = Clock::now();
    generate_s.push_back(seconds_between(t0, t1));
    setup_s.push_back(seconds_between(t0, t2));
    if (setup_s.size() > 1 && in->digest != digest) {
      fail("input digest differs between set-ups");
    }
    digest = in->digest;
  };
  set_up();
  const std::size_t batch = in->models.size();
  char digest_hex[24];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(digest));
  out.context.push_back(std::string("input digest: ") + digest_hex);
  out.context.push_back("batch: " + std::to_string(batch) +
                        " instances, exec pool " + std::to_string(kThreads) +
                        " threads");

  // --- 2. check round --------------------------------------------------
  std::vector<std::string> winners(batch);
  std::vector<double> objectives(batch);
  std::vector<double> latency_ms, nodes, instances;
  double requests = 0.0, admitted = 0.0, offered = 0.0, served = 0.0;
  std::size_t wins_bfdsu = 0, wins_pso = 0, wins_lp = 0;
  {
    ScopedSpan span(spans, "bench.check_round", "bench");
    for (std::size_t i = 0; i < batch; ++i) {
      const auto& model = in->models[i];
      std::optional<nfv::core::SolverOutcome> solved;
      {
        ScopedSpan ps(spans, "core.portfolio_run", "core");
        solved.emplace(portfolio.run(model, in->solve_seeds[i]));
      }
      const nfv::core::SolverOutcome& race = *solved;
      const std::string bad = check_outcome(model, race, rho_max);
      if (!bad.empty()) {
        fail("instance " + std::to_string(i) + ": " + bad);
      }
      winners[i] = race.winner;
      objectives[i] = race.result.total_latency;
      wins_bfdsu += race.winner == "bfdsu";
      wins_pso += race.winner == "pso";
      wins_lp += race.winner == "lp";
      const auto& r = race.result;
      latency_ms.push_back(r.avg_total_latency * 1e3);
      nodes.push_back(static_cast<double>(r.placement_metrics.nodes_in_service));
      // Instances the solution puts to use: those holding at least one
      // admitted request.
      double used = 0.0;
      for (std::size_t f = 0; f < r.contexts.size(); ++f) {
        std::vector<bool> busy(r.contexts[f].problem.instance_count, false);
        for (std::size_t q = 0; q < r.admissions[f].admitted.size(); ++q) {
          if (r.admissions[f].admitted[q]) busy[r.schedules[f].instance_of[q]] = true;
        }
        used += static_cast<double>(std::count(busy.begin(), busy.end(), true));
      }
      instances.push_back(used);
      for (std::size_t q = 0; q < r.requests.size(); ++q) {
        const double rate = model.workload.requests[q].arrival_rate;
        requests += 1.0;
        offered += rate;
        if (r.requests[q].admitted) {
          admitted += 1.0;
          served += rate;
        }
      }
    }
  }

  // --- 3. timed rounds -------------------------------------------------
  // Every untraced round solves the same instances with the same seeds, so
  // the end-to-end timings keep each instance's fastest solve: what the
  // code costs when the machine does not interfere.
  std::vector<double> solve_us, round_sps, traced_sps;
  std::vector<double> best_us(batch, std::numeric_limits<double>::infinity());
  const auto measure_start = Clock::now();
  double setups_in_window_s = 0.0;
  const auto window_s = [&] {
    return seconds_between(measure_start, Clock::now()) - setups_in_window_s;
  };
  for (std::size_t round = 0;; ++round) {
    if (setup_s.size() < kSetups &&
        window_s() >= opt.seconds * static_cast<double>(setup_s.size()) /
                          static_cast<double>(kSetups)) {
      const auto s0 = Clock::now();
      set_up();
      setups_in_window_s += seconds_between(s0, Clock::now());
    }
    const double elapsed = window_s();
    if (elapsed >= opt.seconds && round_sps.size() >= kMinRounds &&
        (!opt.traced || traced_sps.size() >= kMinRounds)) {
      break;
    }
    const bool traced_round = opt.traced && round % 2 == 1;
    SpanRecorder* round_spans = traced_round ? spans : nullptr;
    const auto t0 = Clock::now();
    {
      ScopedSpan rs(round_spans, "bench.round", "bench");
      for (std::size_t i = 0; i < batch; ++i) {
        const auto s0 = Clock::now();
        std::optional<nfv::core::SolverOutcome> race;
        {
          ScopedSpan span(round_spans, "core.portfolio_run", "core");
          race.emplace(portfolio.run(in->models[i], in->solve_seeds[i]));
        }
        if (!traced_round) {
          solve_us.push_back(seconds_between(s0, Clock::now()) * 1e6);
          best_us[i] = std::min(best_us[i], solve_us.back());
        }
        if (race->winner != winners[i] ||
            race->result.total_latency != objectives[i]) {
          fail("round " + std::to_string(round) + " instance " +
               std::to_string(i) + " differs from the check round");
        }
      }
    }
    const double sps =
        static_cast<double>(batch) / seconds_between(t0, Clock::now());
    (traced_round ? traced_sps : round_sps).push_back(sps);
  }
  while (setup_s.size() < kSetups) set_up();
  const std::uint64_t solves =
      batch * (1 + round_sps.size() + traced_sps.size());

  // The batch size leaves at least kMinBeyond solves beyond p90.
  const std::size_t tail_beyond = samples_beyond(batch, 90.0);
  if (tail_beyond < kMinBeyond) {
    fail("op_tail_us (p90) has only " + std::to_string(tail_beyond) +
         " samples beyond it");
  }
  if (!opt.traced) {
    double best_s = 0.0;
    for (const double us : best_us) best_s += us * 1e-6;
    rep.add("ops_per_s", static_cast<double>(batch) / best_s, "1/s",
            solve_us.size());
    rep.add("op_p50_us", percentile(best_us, 50.0), "us", solve_us.size());
    rep.add("op_tail_us", percentile(best_us, 90.0), "us", solve_us.size());
    rep.add("setup_s", median(setup_s), "s", setup_s.size());
    rep.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
    rep.add("mean_latency_ms", mean(latency_ms), "ms", batch);
    rep.add("admit_rate", admitted / requests, "ratio",
            static_cast<std::uint64_t>(requests));
    rep.add("availability", served / offered, "ratio",
            static_cast<std::uint64_t>(requests));
    rep.add("nodes_in_service", mean(nodes), "count", batch);
    rep.add("instances_mean", mean(instances), "count", batch);
    std::string per_round;
    for (const double sps : round_sps) per_round += " " + std::to_string(sps);
    out.context.push_back("solve tail: p90 of the fastest solve times with " +
                          std::to_string(tail_beyond) +
                          " samples beyond it; solves/s per round:" +
                          per_round);
    out.context.push_back(tail_summary("solve us", solve_us));
  } else {
    rep.add("workload.generate_s", median(generate_s), "s", generate_s.size());
    rep.add("core.wins_bfdsu", static_cast<double>(wins_bfdsu), "count", batch);
    rep.add("core.wins_pso", static_cast<double>(wins_pso), "count", batch);
    rep.add("core.wins_lp", static_cast<double>(wins_lp), "count", batch);

    // RCKK over every VNF of each instance, as the pipeline's phase 2 runs
    // it (make_scheduling_contexts + one schedule per VNF).
    std::vector<double> rckk_ms;
    for (const auto& model : in->models) {
      ScopedSpan span(spans, "scheduling.rckk_batch", "scheduling");
      const auto t0 = Clock::now();
      const auto contexts = nfv::core::make_scheduling_contexts(model.workload);
      for (const auto& ctx : contexts) {
        nfv::Rng rng(1);
        (void)nfv::sched::RckkScheduling{}.schedule(ctx.problem, rng);
      }
      rckk_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    }
    rep.add("scheduling.rckk_ms", mean(rckk_ms), "ms", rckk_ms.size());

    // Single-backend placement and full-pipeline timings on a fixed
    // subsample; the race speedup compares their sum with the portfolio.
    double single_sum = 0.0, race_sum = 0.0;
    std::size_t sub = 0;
    for (const char* id : {"bfdsu", "pso", "lp"}) {
      const auto single = solver_for(id);
      std::vector<double> place_ms;
      for (std::size_t i = 0; i < batch; i += kSubsample) {
        const auto problem = nfv::placement::make_problem(
            in->models[i].topology, in->models[i].workload);
        const auto t0 = Clock::now();
        {
          ScopedSpan span(spans, "placement.place", "placement");
          (void)single.place(problem, in->solve_seeds[i]);
        }
        place_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
        const auto t1 = Clock::now();
        {
          ScopedSpan span(spans, "core.single_backend_run", "core");
          (void)single.run(in->models[i], in->solve_seeds[i]);
        }
        single_sum += seconds_between(t1, Clock::now());
      }
      rep.add(std::string("placement.") + id + "_ms", median(place_ms), "ms",
              place_ms.size());
    }
    for (std::size_t i = 0; i < batch; i += kSubsample, ++sub) {
      const auto t0 = Clock::now();
      {
        ScopedSpan span(spans, "core.portfolio_run", "core");
        (void)portfolio.run(in->models[i], in->solve_seeds[i]);
      }
      race_sum += seconds_between(t0, Clock::now());
    }
    rep.add("exec.race_speedup", single_sum / race_sum, "ratio", sub);
    rep.add("bench.trace_overhead_pct",
            100.0 * (median(round_sps) / median(traced_sps) - 1.0), "%",
            round_sps.size() + traced_sps.size());
  }

  out.attempted = solves;
  out.context.push_back("run wall: " +
                        std::to_string(seconds_between(run_start, Clock::now())) +
                        " s");
  return out;
}

}  // namespace perfbench
