// Joint-solve scaling bench (not a paper figure): one large clustered
// instance — many independent chain groups, ≥100k requests — solved by
// the joint pipeline on one thread and on a worker pool.
//
//   bench_scale_joint --requests 100000 --threads 4 --reps 3 --json out.json
//
// Rows pair measured wall clock with the deterministic solution columns,
// bit-identical for any thread count:
//
//   wall_us   fastest of --reps runs at the row's thread count (the reps
//             of the two rows interleave, so a change in the host's speed
//             reaches both, and start after bench::warm_up_cores);
//   speedup   wall_us(monolithic, 1 thread) / wall_us(row) — what the
//             per-VNF scheduling fan-out buys on this host;
//   work      placement iterations + scheduling work;
//   util, nodes, imbalance  the solution itself.
//
// Report only: no row gates the exit code.  JSON lands in the
// "nfvpr.bench/1" schema for baseline diffing against
// bench/baselines/scale_joint.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "nfv/common/cli.h"
#include "nfv/common/rng.h"
#include "nfv/common/table.h"
#include "nfv/core/joint_optimizer.h"
#include "nfv/topology/builders.h"

namespace {

using Clock = std::chrono::steady_clock;

/// A large clustered instance: `groups` independent chain groups (the
/// incidence graph has exactly `groups` components), uniform node
/// capacities, per-VNF service rates scaled to the realized load.
nfv::core::SystemModel make_clustered_model(std::uint64_t seed,
                                            std::uint32_t groups,
                                            std::uint32_t vnfs_per_group,
                                            std::uint32_t requests,
                                            std::size_t nodes_per_group) {
  nfv::Rng rng(seed);
  nfv::core::SystemModel model;
  const std::size_t nodes = groups * nodes_per_group;
  const double capacity = 1000.0;
  model.topology =
      nfv::topo::make_star(nodes, nfv::topo::CapacitySpec{capacity, capacity},
                           nfv::topo::LinkSpec{1e-4}, rng);
  const std::uint32_t vnf_count = groups * vnfs_per_group;
  // Fill ~65% of each group's node slice.
  const double demand_per_instance =
      0.65 * static_cast<double>(nodes_per_group) * capacity /
      (2.0 * static_cast<double>(vnfs_per_group));
  for (std::uint32_t f = 0; f < vnf_count; ++f) {
    nfv::workload::Vnf v;
    v.id = nfv::VnfId{f};
    v.name = "vnf" + std::to_string(f);
    v.catalog_index = f;
    v.demand_per_instance = demand_per_instance * rng.uniform(0.6, 1.4);
    v.instance_count = 2;
    v.service_rate = 1.0;  // rescaled below once member loads are known
    model.workload.vnfs.push_back(std::move(v));
  }
  std::vector<double> vnf_load(vnf_count, 0.0);
  for (std::uint32_t r = 0; r < requests; ++r) {
    nfv::workload::Request req;
    req.id = nfv::RequestId{r};
    const std::uint32_t g = r % groups;
    const std::uint32_t base = g * vnfs_per_group;
    const std::uint32_t start =
        static_cast<std::uint32_t>(rng.below(vnfs_per_group));
    const std::uint32_t len =
        2 + static_cast<std::uint32_t>(rng.below(vnfs_per_group - 1));
    for (std::uint32_t k = 0; k < len; ++k) {
      req.chain.push_back(nfv::VnfId{base + (start + k) % vnfs_per_group});
    }
    req.arrival_rate = rng.uniform(1.0, 20.0);
    req.delivery_prob = 0.98;
    for (const nfv::VnfId f : req.chain) {
      vnf_load[f.index()] += req.arrival_rate / req.delivery_prob;
    }
    model.workload.requests.push_back(std::move(req));
  }
  for (std::uint32_t f = 0; f < vnf_count; ++f) {
    // μ_f = 1.3 × perfectly-balanced Λ_k, as the figure benches do.
    model.workload.vnfs[f].service_rate = std::max(1.0, 1.3 * vnf_load[f] / 2.0);
  }
  return model;
}

/// Deterministic work: placement iterations + per-VNF scheduling work.
std::uint64_t solver_work(const nfv::core::JointResult& result) {
  std::uint64_t work = result.placement.iterations;
  for (const auto& schedule : result.schedules) work += schedule.work;
  return work;
}

/// Mean relative Λ-imbalance (spread / mean) over the admitted schedules.
double mean_rel_imbalance(const nfv::core::JointResult& result) {
  double total = 0.0;
  std::size_t counted = 0;
  for (const auto& admission : result.admissions) {
    const auto& loads = admission.admitted_metrics.instance_effective_load;
    if (loads.empty()) continue;
    const auto [lo, hi] = std::minmax_element(loads.begin(), loads.end());
    const double mean = std::accumulate(loads.begin(), loads.end(), 0.0) /
                        static_cast<double>(loads.size());
    if (mean > 0.0) {
      total += (*hi - *lo) / mean;
      ++counted;
    }
  }
  return counted > 0 ? total / static_cast<double>(counted) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  nfv::CliParser cli("bench_scale_joint",
                     "joint solve at scale, one thread vs a worker pool "
                     "(nfvpr.bench/1 JSON)");
  const auto& groups = cli.add_int("groups", 'g', "independent chain groups", 48);
  const auto& vnfs = cli.add_int("vnfs", 'f', "VNFs per group", 24);
  const auto& requests =
      cli.add_int("requests", 'n', "total requests (across groups)", 100000);
  const auto& threads =
      cli.add_int("threads", 'j', "worker threads for the _par row", 4);
  const auto& reps = cli.add_int("reps", 'r', "timed repetitions per row", 3);
  const auto& seed = cli.add_int("seed", 's', "model seed", 42);
  const auto& json = cli.add_string("json", '\0', "write JSON table here", "");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 2;
  if (groups < 1 || vnfs < 2 || requests < 1 || threads < 1 || reps < 1) {
    std::fputs("bench_scale_joint: sizes, --threads and --reps must be >= 1 "
               "(--vnfs >= 2)\n",
               stderr);
    return 2;
  }

  nfv::bench::print_banner(
      "Joint-solve scaling — one thread vs a worker pool",
      "Clustered instance solved by BFDSU then RCKK.  Every column except\n"
      "wall_us and speedup is bit-identical for any thread count; wall_us\n"
      "is the fastest of --reps runs and speedup the measured ratio to the\n"
      "one-thread row.  Placement runs serially; only the per-VNF\n"
      "scheduling fans out.");

  const auto model = make_clustered_model(
      static_cast<std::uint64_t>(seed), static_cast<std::uint32_t>(groups),
      static_cast<std::uint32_t>(vnfs), static_cast<std::uint32_t>(requests),
      4);
  std::printf("instance: %lld groups x %lld VNFs, %zu requests, %zu nodes\n\n",
              static_cast<long long>(groups), static_cast<long long>(vnfs),
              model.workload.requests.size(),
              model.topology.compute_count());

  struct Row {
    const char* name;
    std::uint32_t threads;
    double wall_us;  ///< fastest of the reps so far
    std::optional<nfv::core::JointResult> result;
  };
  constexpr double kNone = std::numeric_limits<double>::infinity();
  Row rows[] = {
      {"monolithic", 1, kNone, std::nullopt},
      {"monolithic_par", static_cast<std::uint32_t>(threads), kNone,
       std::nullopt},
  };
  nfv::bench::warm_up_cores(static_cast<std::uint32_t>(threads));
  for (long long rep = 0; rep < reps; ++rep) {
    for (Row& row : rows) {
      nfv::core::JointConfig cfg;
      cfg.exec.threads = row.threads;
      const nfv::core::JointOptimizer optimizer(cfg);
      const auto start = Clock::now();
      row.result = optimizer.run(model, static_cast<std::uint64_t>(seed));
      row.wall_us = std::min(
          row.wall_us,
          std::chrono::duration<double, std::micro>(Clock::now() - start)
              .count());
      if (!row.result->feasible) {
        std::fprintf(stderr, "bench_scale_joint: %s run infeasible\n",
                     row.name);
        return 1;
      }
    }
  }

  nfv::Table table({"case", "threads", "reps", "wall_us", "speedup", "work",
                    "util", "nodes", "imbalance"});
  table.set_precision(3);
  for (const Row& row : rows) {
    const nfv::core::JointResult& result = *row.result;
    table.add_row(
        {std::string(row.name), static_cast<long long>(row.threads),
         static_cast<long long>(reps), row.wall_us,
         rows[0].wall_us / row.wall_us,
         static_cast<long long>(solver_work(result)),
         result.placement_metrics.avg_utilization_of_used,
         static_cast<long long>(result.placement_metrics.nodes_in_service),
         mean_rel_imbalance(result)});
  }
  std::fputs(table.markdown().c_str(), stdout);
  nfv::bench::write_table_json(table, "scale_joint", json);
  return 0;
}
