// The paper's two-phase pipeline (Sec. IV): place VNF chains, then schedule
// requests onto service instances, and evaluate the joint objective
// Eq. 16 — per-request response latency plus (Σ_v η_v^r − 1)·L of
// inter-node link latency.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nfv/common/ids.h"
#include "nfv/exec/thread_pool.h"
#include "nfv/placement/algorithm.h"
#include "nfv/placement/metrics.h"
#include "nfv/scheduling/algorithm.h"
#include "nfv/scheduling/metrics.h"
#include "nfv/topology/topology.h"
#include "nfv/workload/vnf.h"

namespace nfv::core {

/// A full problem instance: where VNFs may run and who wants them.
struct SystemModel {
  topo::Topology topology;
  workload::Workload workload;

  void validate() const;
};

/// Pipeline configuration.
struct JointConfig {
  std::string placement_algorithm = "BFDSU";
  std::string scheduling_algorithm = "RCKK";
  /// Admission-control utilization ceiling ρ_max per instance.
  double rho_max = 0.999;
  /// Per-hop latency L of Eq. 16; defaults to the topology's mean link
  /// latency when unset.
  std::optional<double> link_latency;
  /// Fan-out width for per-VNF scheduling (and a portfolio race's
  /// placements).  Results are bit-identical for any thread count (see
  /// DESIGN.md §10).
  exec::ExecConfig exec;
};

/// Scheduling context of one VNF: its m-way partitioning problem plus the
/// mapping from problem positions back to request ids.
struct VnfSchedulingContext {
  sched::SchedulingProblem problem;
  std::vector<RequestId> members;  ///< problem position -> request id
};

/// Per-request outcome under the joint solution.
struct RequestOutcome {
  bool admitted = false;          ///< admitted at every VNF of its chain
  double response_latency = 0.0;  ///< Σ_chain W(f, k_r)   (0 if rejected)
  double link_latency = 0.0;      ///< (nodes_traversed − 1) · L
  std::uint32_t nodes_traversed = 0;  ///< Σ_v η_v^r

  [[nodiscard]] double total_latency() const {
    return response_latency + link_latency;
  }
};

/// Phase 2's output (Algorithm 2 plus ρ_max admission, per VNF).  It reads
/// the workload only — never a placement — so one phase 2 serves every
/// placement of the same instance.
struct ScheduleResult {
  std::vector<VnfSchedulingContext> contexts;    ///< per VNF
  std::vector<sched::Schedule> schedules;        ///< per VNF
  std::vector<sched::AdmissionResult> admissions;///< per VNF
};

/// Eq. 16's placement-independent terms for one phase 2 (phase_terms()).
struct PhaseTerms {
  std::vector<RequestOutcome> requests;  ///< admitted, response; no links
  double avg_response = 0.0;             ///< mean W over all instances
};

/// Complete result of one pipeline run.
struct JointResult {
  bool feasible = false;  ///< placement succeeded & all schedules stable
  placement::Placement placement;
  placement::PlacementMetrics placement_metrics;
  std::vector<VnfSchedulingContext> contexts;    ///< per VNF
  std::vector<sched::Schedule> schedules;        ///< per VNF
  std::vector<sched::AdmissionResult> admissions;///< per VNF
  std::vector<RequestOutcome> requests;          ///< per request

  // Aggregates over admitted requests / all instances.
  double total_latency = 0.0;       ///< Eq. 16 objective
  double avg_total_latency = 0.0;   ///< per admitted request
  double avg_response = 0.0;        ///< mean W over all service instances
  double job_rejection_rate = 0.0;  ///< rejected requests / |R|

  /// Moves a phase-2 result in: contexts, schedules and admissions.
  void adopt(ScheduleResult&& phase);
};

/// One instance prepared for the stages, once per run or race: Eq. 14's
/// packing problem.  Refers to `model`, which must outlive it.
struct PreparedModel {
  const SystemModel& model;
  placement::PlacementProblem problem;
};

/// Phase 2 as independent work items for one exec fan-out, one item per
/// VNF: call run_item(i) exactly once for every i in [0, items()), on any
/// thread and in any order, then finish().  Refers to the PreparedModel
/// and JointOptimizer it came from, which must outlive it.
class SchedulePass {
 public:
  [[nodiscard]] std::size_t items() const { return items_; }

  /// Never throws: a failure is kept for finish().
  void run_item(std::size_t i) noexcept;

  /// The phase-2 result.  Rethrows the failure of building the contexts,
  /// else that of the lowest failed item, so a workload phase 2 cannot
  /// model fails only the runs that get this far.
  [[nodiscard]] ScheduleResult finish() &&;

 private:
  friend class JointOptimizer;
  SchedulePass(const PreparedModel& in, const JointConfig& config,
               const sched::SchedulingAlgorithm& scheduler,
               std::uint64_t seed);

  const JointConfig& config_;
  const sched::SchedulingAlgorithm& scheduler_;
  std::vector<Rng> children_;               ///< per VNF
  std::size_t items_ = 0;
  ScheduleResult out_;
  std::exception_ptr setup_error_;
  std::vector<std::exception_ptr> item_errors_;
};

/// Two-phase optimizer.  Stateless; all randomness flows through the seed.
///
/// run() is three stages in sequence — place, schedule, evaluate — and the
/// solver portfolio (DESIGN.md §17) composes the same stages: it places
/// once per backend, and schedules and takes the phase_terms() once per
/// instance.
class JointOptimizer {
 public:
  /// Throws std::invalid_argument for an out-of-range knob or an unknown
  /// scheduling algorithm.
  explicit JointOptimizer(JointConfig config);

  /// Runs placement, then per-VNF scheduling + admission, then evaluates
  /// Eq. 16.  Throws std::invalid_argument for an unknown placement
  /// algorithm.
  [[nodiscard]] JointResult run(const SystemModel& model,
                                std::uint64_t seed) const;

  /// Validates `model` and builds what every stage reads.
  [[nodiscard]] PreparedModel prepare(const SystemModel& model) const;

  /// Stage 1: `algo` places the instance from Rng(seed).  Fills placement
  /// and placement_metrics.
  [[nodiscard]] JointResult place(const PreparedModel& in,
                                  const placement::PlacementAlgorithm& algo,
                                  std::uint64_t seed) const;

  /// Stage 2: phase 2 for `in`.  Its streams fork off `seed` alone, so the
  /// result never depends on a placement.
  [[nodiscard]] SchedulePass schedule(const PreparedModel& in,
                                      std::uint64_t seed) const;

  /// Stage 3: Eq. 16 for `result`'s (feasible) placement on top of the
  /// phase_terms() of its phase 2: adds the distinct-node link terms,
  /// fills requests and the aggregates and sets feasible.
  void evaluate(const SystemModel& model, const PhaseTerms& terms,
                JointResult& result) const;

  [[nodiscard]] const JointConfig& config() const { return config_; }

 private:
  JointConfig config_;
  std::unique_ptr<const sched::SchedulingAlgorithm> scheduler_;
};

/// Stage 3's placement-independent part: each request's admission and
/// Σ_chain W(f, k_r), and the mean W over all service instances.  Taken
/// once per phase 2, however many placements are evaluated against it.
[[nodiscard]] PhaseTerms phase_terms(const SystemModel& model,
                                     const ScheduleResult& phase);

/// Adds one returned result to the core.joint.* counters: runs, admitted
/// and rejected requests.  run() calls it once per run, the portfolio race
/// once per race (for its winner).
void count_run(const JointResult& result);

/// Builds the per-VNF scheduling contexts for a workload (member lists in
/// request-id order).  Exposed for benches that schedule without placing.
[[nodiscard]] std::vector<VnfSchedulingContext> make_scheduling_contexts(
    const workload::Workload& workload);

/// Positions of each request inside its chain VNFs' scheduling problems,
/// stored CSR-style aligned with the chains: entry offsets[r] + j is the
/// problem position of request r at chain offset j.  O(Σ|chain|) memory —
/// a dense |F|×|R| lookup is quadratic at scale.
struct ChainPositionIndex {
  std::vector<std::size_t> offsets;     ///< size |R| + 1
  std::vector<std::uint32_t> position;  ///< size Σ|chain|

  [[nodiscard]] std::uint32_t at(std::size_t request_index,
                                 std::size_t chain_offset) const {
    return position[offsets[request_index] + chain_offset];
  }
};

/// Builds the index for `contexts` as make_scheduling_contexts returns them
/// for `workload`.
[[nodiscard]] ChainPositionIndex make_chain_position_index(
    const workload::Workload& workload,
    const std::vector<VnfSchedulingContext>& contexts);

}  // namespace nfv::core
