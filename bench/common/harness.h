// Shared Monte-Carlo harness for the figure-reproduction benches.
//
// Every bench binary is a thin main() that sweeps one paper axis, calls
// these runners, and prints a Markdown table whose rows mirror the figure's
// series.  All runs are seeded: run i uses seed base_seed + i.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "nfv/common/stats.h"
#include "nfv/common/table.h"
#include "nfv/core/joint_optimizer.h"
#include "nfv/scheduling/algorithm.h"
#include "nfv/scheduling/metrics.h"
#include "nfv/workload/generator.h"

namespace nfv::bench {

// ---------------------------------------------------------------------------
// Placement experiments (Figs. 5-10)
// ---------------------------------------------------------------------------

/// One placement sweep point.
struct PlacementScenario {
  std::size_t nodes = 10;
  double capacity_min = 1000.0;  ///< paper: A_v scales 1..5000
  double capacity_max = 5000.0;
  std::uint32_t vnfs = 15;
  std::uint32_t requests = 200;
  /// Total VNF demand is rescaled to this fraction of total node capacity.
  double load_factor = 0.60;
  /// Footprint profile: when true (default), VNF footprints are redrawn
  /// uniformly in [1−spread, 1+spread] × (target/|F|) — the coarse-grained
  /// regime of the paper's Figs. 5-10 (~1.5 VNFs per node, where packing
  /// quality matters).  When false the catalog's per-type heterogeneity is
  /// kept (many small pieces; every fit algorithm packs well).
  bool uniform_demands = true;
  double demand_spread = 0.8;
  std::uint32_t runs = 100;
  std::uint64_t base_seed = 42;
  /// Monte-Carlo fan-out width; 1 = serial.  Summaries are bit-identical
  /// for any value (runs are independently seeded, folded in run order).
  std::uint32_t threads = 1;
};

/// Averages over feasible runs.
struct PlacementSummary {
  double avg_utilization = 0.0;   ///< Figs. 5-7 metric
  double nodes_in_service = 0.0;  ///< Fig. 8 metric
  double occupation = 0.0;        ///< Fig. 9 metric
  double iterations = 0.0;        ///< Fig. 10 metric
  std::uint32_t feasible_runs = 0;
};

/// Runs `algorithm` over the scenario's Monte-Carlo repetitions.
[[nodiscard]] PlacementSummary run_placement(const PlacementScenario& scenario,
                                             std::string_view algorithm);

// ---------------------------------------------------------------------------
// Scheduling experiments (Figs. 11-16 and the tail table)
// ---------------------------------------------------------------------------

/// One scheduling sweep point (single-VNF view, as in the paper's Sec. V-C).
struct SchedulingScenario {
  std::size_t requests = 50;
  std::uint32_t instances = 5;
  double delivery_prob = 0.98;   ///< P
  /// μ = headroom · Σλ / m ("we scale μ_f with the number of requests").
  double headroom = 1.2;
  /// If > 0, use this absolute μ instead of scaling (Figs. 15-16 fix μ so
  /// that load grows with the request count).
  double service_rate_override = 0.0;
  double arrival_min = 1.0;      ///< λ ∈ [1, 100] pps (Sec. V-A.3)
  double arrival_max = 100.0;
  /// Heavy-tail parameter for the trace-driven rate sampler (lognormal
  /// inter-arrivals, Benson et al. [9]); 0 (default) = plain uniform
  /// rates, which is what reproduces the paper's Figs. 11-16 shapes.
  double rate_sigma_log = 0.0;
  double rho_max = 0.999;        ///< admission ceiling
  std::uint32_t runs = 1000;     ///< paper: "execute both algorithms 1000 times"
  std::uint64_t base_seed = 7;
  std::uint32_t threads = 1;     ///< Monte-Carlo fan-out width (see above)
};

/// Distribution of per-run results.
struct SchedulingSummary {
  double avg_response = 0.0;   ///< mean over runs of per-run avg W (Eq. 15)
  double p99_response = 0.0;   ///< 99th percentile across runs (tail table)
  double rejection_rate = 0.0; ///< mean job rejection rate (Figs. 15-16)
  double imbalance = 0.0;      ///< mean max-min load gap
  double work = 0.0;           ///< mean algorithm work units
  std::uint32_t stable_runs = 0;  ///< runs whose raw schedule was stable
};

[[nodiscard]] SchedulingSummary run_scheduling(
    const SchedulingScenario& scenario, std::string_view algorithm);

// ---------------------------------------------------------------------------
// Joint pipeline experiments (Eq. 16)
// ---------------------------------------------------------------------------

struct JointScenario {
  std::size_t nodes = 12;
  double capacity_min = 400.0;   ///< small caps force multi-node chains
  double capacity_max = 800.0;
  std::uint32_t vnfs = 15;
  std::uint32_t requests = 150;
  double link_latency = 1e-3;    ///< L of Eq. 16
  /// Workload service-rate headroom (μ·M_f over offered load); the paper's
  /// latency experiments run close to saturation.
  double service_headroom = 1.12;
  /// Target requests sharing one instance (drives M_f).
  std::uint32_t requests_per_instance = 12;
  std::uint32_t runs = 50;
  std::uint64_t base_seed = 11;
  std::uint32_t threads = 1;     ///< Monte-Carlo fan-out width (see above)
};

struct JointSummary {
  double avg_total_latency = 0.0;  ///< Eq. 16 per admitted request
  double avg_response = 0.0;       ///< instance-level mean W
  double avg_link_latency = 0.0;   ///< mean (η−1)·L per admitted request
  double rejection_rate = 0.0;
  double nodes_in_service = 0.0;
  std::uint32_t feasible_runs = 0;
};

[[nodiscard]] JointSummary run_joint(const JointScenario& scenario,
                                     std::string_view placement_algorithm,
                                     std::string_view scheduling_algorithm);

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Rescales every VNF's per-instance demand so total demand equals
/// `target_total`, then clamps any single VNF footprint to `max_piece`
/// (keeping the instance count intact).
void scale_workload_demand(workload::Workload& w, double target_total,
                           double max_piece);

/// Prints the standard bench banner (figure id + protocol description).
void print_banner(std::string_view figure, std::string_view description);

/// Writes the table's summary rows as JSON (schema "nfvpr.bench/1"):
///   {"schema": "nfvpr.bench/1", "bench": <name>,
///    "rows": [{<header>: <cell>, ...}, ...]}
/// No-op when `path` is empty, so mains can pass a --json flag through
/// unconditionally.  Throws std::runtime_error if the file cannot open.
void write_table_json(const Table& table, std::string_view bench,
                      const std::string& path);

/// Keeps `threads` threads busy, untimed, for 5 s; a no-op for one
/// thread.  On a virtual host whose vCPUs have sat idle, a fan-out gets
/// about one core's worth of speed for its first seconds (2–4 s after 45 s
/// idle, measured on a 4-vCPU VM), so benches that time `--threads N`
/// against one thread call this before their first timed run.
void warm_up_cores(std::uint32_t threads);

/// (baseline − ours) / baseline as a percentage string-friendly double.
[[nodiscard]] double enhancement_percent(double baseline, double ours);

}  // namespace nfv::bench
