// Online serving engine: a long-running controller that holds live
// placement + assignment state and evolves it one StreamEvent at a time
// (DESIGN.md §11).  Where the offline pipeline (core::JointOptimizer) sees
// the whole request set up front, the engine sees REQ_ARRIVE / REQ_DEPART /
// RATE_CHANGE events and must keep every service instance stable without
// mass reshuffling.
//
// Per event it applies three policies:
//
//  * Admission control (M/M/1 stability): request r is admitted at VNF f
//    only on an instance whose effective load stays within
//    (1 − headroom) · μ_f after adding λ_r / P_r — with uniform delivery
//    probability this is the paper's raw-rate form Σλ ≤ (1−h)·P·μ_f.  When
//    no instance of some hop admits it and no scale-out is possible, the
//    request is queued (bounded FIFO) or rejected.
//
//  * Incremental rebalancing: arrivals go to the least-loaded feasible
//    instance (greedy); when a VNF's relative load imbalance
//    (max − min) / mean exceeds `rebalance_threshold`, its live requests
//    are re-solved with RCKK and at most `migration_budget` request moves
//    are applied toward the fresh optimum (sched::plan_bounded_migration).
//
//  * Scale out / in: when every instance of a hop is saturated, a new
//    service instance is opened via an incremental best-fit node pick
//    (BFDSU's used-nodes-first rule, made deterministic: smallest feasible
//    residual wins, lower node id on ties); instances whose last request
//    departs are retired and their capacity reclaimed.
//
//  * Fault tolerance (DESIGN.md §13): NODE_DOWN closes the node's
//    instances and evacuates their requests through a deterministic ladder
//    (re-place on survivors → scale out a replacement → park with
//    event-indexed backoff → shed with fault accounting); NODE_UP returns
//    the node to the best-fit candidate set.  Sustained admission pressure
//    flips the engine into a degraded mode that tightens headroom and
//    sheds lowest-rate requests first.  Checkpoint/resume (checkpoint.h)
//    snapshots the full state so a killed run continues bit-identically.
//
// The engine is strictly deterministic — no RNG, no wall clock, and no
// parallel site: every decision runs on the calling thread — so replaying
// a trace yields a bit-identical state and report for any thread count.
// Its decision path reuses engine-owned scratch (DESIGN.md §11.4), so a
// warm engine applies a rate change without touching the heap.
//
// Its two records, ServeSummary and EventOutcome, each have one field list
// (src/serve/src/field_lists.h) that the checkpoint, the run report's
// "serve" section (report_section) and the flight dump (write_flight_dump)
// all walk: a new counter is one member plus one line in its list.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <set>
#include <optional>
#include <string_view>
#include <vector>

#include "nfv/common/flat_map.h"
#include "nfv/common/histogram.h"
#include "nfv/obs/lifecycle.h"
#include "nfv/serve/autoscale.h"
#include "nfv/obs/report.h"
#include "nfv/obs/timeline.h"
#include "nfv/scheduling/migration.h"
#include "nfv/scheduling/problem.h"
#include "nfv/scheduling/workspace.h"
#include "nfv/topology/topology.h"
#include "nfv/workload/event_stream.h"
#include "nfv/workload/vnf.h"

namespace nfv::serve {

/// Serving-policy knobs.
struct ServeConfig {
  /// Stability margin: an instance admits load only up to
  /// (1 − headroom) · μ_f of effective rate.
  double headroom = 0.10;
  /// Relative imbalance (max−min)/mean that triggers a bounded RCKK
  /// rebalance of one VNF's live requests.
  double rebalance_threshold = 0.25;
  /// K: max request moves per rebalance pass.
  std::uint32_t migration_budget = 4;
  /// Waiting room for requests no instance admits; 0 rejects immediately.
  std::size_t queue_capacity = 64;
  /// Per-hop link latency L of Eq. 16; defaults to the topology's mean.
  std::optional<double> link_latency;

  /// Sustained-overload degradation (DESIGN.md §13): when at least
  /// `overload_threshold` of the last `overload_window` events saw
  /// admission pressure (a queued/rejected arrival, or a non-empty
  /// waiting/retry queue), the engine enters degraded mode — headroom
  /// tightens to `degraded_headroom` and the lowest-rate requests on
  /// over-limit instances are shed first.  It exits (and relaxes the
  /// headroom) once pressure falls to half the threshold.  A window of 0
  /// disables degradation.
  std::size_t overload_window = 32;
  double overload_threshold = 0.75;
  /// Headroom while degraded; must be in [headroom, 1).
  double degraded_headroom = 0.25;

  /// Fault-evacuation retry ladder (DESIGN.md §13): a request whose node
  /// died and that no surviving instance admits is parked and retried with
  /// a deterministic event-indexed backoff of `retry_backoff_base << k`
  /// events after its k-th failed attempt; after `retry_budget` failed
  /// retries it is shed with fault accounting.
  std::uint64_t retry_backoff_base = 4;
  std::uint32_t retry_budget = 3;

  /// Streaming telemetry (DESIGN.md §14).  When > 0, the engine closes one
  /// timeline window every `snapshot_every` trace-time units and emits a
  /// "nfvpr.timeline/1" record per window — driven purely by event time,
  /// so the stream is byte-identical for any --threads and across
  /// checkpoint/resume.  0 disables the timeline.
  double snapshot_every = 0.0;
  /// Sliding span (in windows) of the admission-wait percentile histogram.
  std::size_t timeline_span = 8;
  /// Record the per-request lifecycle stream (admit/place/migrate/...).
  bool lifecycle = false;

  /// Elastic autoscaling (DESIGN.md §16): when `autoscale.policy` is not
  /// kOff the engine evaluates the ScalingController at every
  /// `autoscale.scale_interval` trace-time boundary and applies its
  /// per-VNF deltas — scale-out via the best-fit node pick, scale-in via
  /// drain-then-retire with at most `migration_budget` member moves per
  /// instance per window.  Off by default; an off engine is byte-identical
  /// (state, checkpoints, telemetry) to one built before the subsystem
  /// existed.
  AutoscaleConfig autoscale;

  void validate() const;
};

/// What the engine decided for one event.
enum class Decision : std::uint8_t {
  kAdmitted,     ///< arrival assigned to instances on every hop
  kQueued,       ///< arrival parked in the FIFO waiting room
  kRejected,     ///< arrival dropped (queue full)
  kDeparted,     ///< live or queued request removed
  kRateChanged,  ///< live/queued request's λ updated (still stable)
  kShed,         ///< rate change made the request unservable — dropped
  kNodeDown,     ///< a compute node failed; instances closed, evacuation ran
  kNodeUp,       ///< a compute node recovered and rejoined the candidate set
};

[[nodiscard]] std::string_view to_string(Decision decision);

/// Per-event outcome record.
struct EventOutcome {
  std::uint64_t index = 0;  ///< position in the trace
  double time = 0.0;
  workload::StreamEventKind kind = workload::StreamEventKind::kArrive;
  std::uint32_t request = 0;
  Decision decision = Decision::kAdmitted;
  std::uint32_t migrations = 0;          ///< bounded-rebalance moves
  std::uint32_t scale_outs = 0;          ///< instances opened
  std::uint32_t scale_ins = 0;           ///< instances retired
  std::uint32_t admitted_from_queue = 0; ///< queue drains this event
  std::uint32_t evacuated = 0;           ///< live requests moved off a dead node
  std::uint32_t evacuation_migrations = 0;  ///< hops re-placed while evacuating
  std::uint32_t parked = 0;              ///< requests parked in the retry queue
  std::uint32_t retry_admitted = 0;      ///< retry-queue re-admissions
  std::uint32_t shed_fault = 0;          ///< sheds charged to node faults
  std::uint32_t shed_overload = 0;       ///< sheds charged to degradation
  bool degraded = false;                 ///< engine degraded after this event
  double mean_predicted_latency = 0.0;   ///< Eq. 16 mean over live requests
  double p99_predicted_latency = 0.0;
};

/// Aggregate counters over the whole replay.
struct ServeSummary {
  std::uint64_t events = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;             ///< admitted on arrival
  std::uint64_t admitted_from_queue = 0;  ///< admitted after waiting
  std::uint64_t rejected = 0;
  std::uint64_t departures = 0;
  std::uint64_t rate_changes = 0;
  std::uint64_t shed = 0;
  std::uint64_t migrations = 0;
  std::uint64_t rebalances = 0;
  std::uint64_t max_migrations_per_rebalance = 0;  ///< never exceeds K
  std::uint64_t scale_outs = 0;
  std::uint64_t scale_ins = 0;
  std::uint64_t live_requests = 0;    ///< at end of replay
  std::uint64_t queued_requests = 0;  ///< still waiting at end
  std::uint64_t retry_queued = 0;     ///< parked in the retry queue at end
  std::uint64_t active_instances = 0;
  std::uint64_t nodes_in_service = 0;
  // Fault tolerance and degradation (DESIGN.md §13).
  std::uint64_t node_downs = 0;
  std::uint64_t node_ups = 0;
  std::uint64_t instances_closed = 0;  ///< closed by node failures
  std::uint64_t evacuated_requests = 0;
  std::uint64_t evacuation_migrations = 0;
  std::uint64_t parked = 0;          ///< entries parked in the retry queue
  std::uint64_t retry_admitted = 0;  ///< re-admitted from the retry queue
  std::uint64_t shed_fault = 0;      ///< shed by the fault ladder
  std::uint64_t shed_overload = 0;   ///< shed by sustained-overload mode
  std::uint64_t degradations = 0;    ///< times degraded mode was entered
  std::uint64_t degraded_events = 0; ///< events spent degraded
  // Elastic autoscaling (DESIGN.md §16); all zero when the policy is off.
  std::uint64_t autoscale_decisions = 0;   ///< decision windows evaluated
  std::uint64_t autoscale_scale_outs = 0;  ///< instances the controller opened
  std::uint64_t autoscale_scale_ins = 0;   ///< drains the controller started
  std::uint64_t autoscale_flaps = 0;       ///< direction reversals in-guard
  std::uint64_t autoscale_blocked_cooldown = 0;  ///< deltas cooled off
  std::uint64_t draining_instances = 0;    ///< still draining at end
  /// ∫ active-instance count dt — the capacity bill the bench compares
  /// against the offline oracle (0.0 when autoscaling is off).
  double instance_seconds = 0.0;
  /// Time-weighted fraction of offered rate actually served:
  /// ∫Σλ_live dt / ∫Σλ_offered dt (1.0 when no time has passed).
  double availability = 1.0;
  double admission_rate = 1.0;  ///< (admitted + from queue) / arrivals
  double mean_predicted_latency = 0.0;  ///< over live requests, Eq. 16
  double p99_predicted_latency = 0.0;
  std::uint64_t work = 0;  ///< deterministic effort counter
};

class ServeEngine {
 public:
  /// `vnfs` defines the VNF universe (demand D_f and rate μ_f per
  /// instance); `Vnf::instance_count` is ignored — the engine scales the
  /// instance set itself.  The topology must be frozen.
  ServeEngine(topo::Topology topology, std::vector<workload::Vnf> vnfs,
              ServeConfig config = {});

  /// Applies one event.  Events must be valid against the live state (the
  /// trace loader enforces this); violations throw TraceParseError, and a
  /// time going backwards throws too.
  EventOutcome on_event(const workload::StreamEvent& event);

  /// Replays a whole trace; returns one outcome per event.
  std::vector<EventOutcome> replay(const workload::EventTrace& trace);

  /// Applies `count` events from contiguous storage as one micro-batch.
  /// Decisions, state, and the log are bit-identical to calling on_event
  /// in a loop — only the bookkeeping is amortized (log room reserved
  /// once per batch, growing geometrically; no per-event outcome copy back
  /// to the caller).
  void apply_batch(const workload::StreamEvent* events, std::size_t count);

  /// Streams up to `limit` events out of a trace reader (text or binary),
  /// applying each as soon as it is read into one reusable buffer, so a
  /// warm loop over a binary trace performs no heap allocation, and
  /// returns the number applied (less than `limit` only when the reader
  /// ran dry).  The resulting state is bit-identical to on_event over the
  /// same events; when the reader throws on a corrupt or invalid event,
  /// every event before it has been applied.  Callers chasing a checkpoint
  /// cadence pass the distance to the next checkpoint as `limit`.
  std::uint64_t replay(workload::TraceReader& reader,
                       std::uint64_t limit = ~std::uint64_t{0});

  /// All outcomes so far, in event order.
  [[nodiscard]] const std::vector<EventOutcome>& log() const { return log_; }

  [[nodiscard]] ServeSummary summary() const;

  /// Comparable value snapshot of the whole live state — two engines that
  /// replayed the same prefix compare equal.
  struct InstanceState {
    std::uint32_t vnf = 0;
    std::uint32_t node = 0;
    std::uint64_t seq = 0;  ///< creation sequence (stable identity)
    double raw_load = 0.0;
    double effective_load = 0.0;
    std::vector<std::uint32_t> requests;  ///< sorted ids

    friend bool operator==(const InstanceState&,
                           const InstanceState&) = default;
  };
  struct Snapshot {
    std::vector<InstanceState> instances;  ///< active, by creation seq
    std::vector<std::uint32_t> queued;     ///< FIFO order
    std::vector<std::uint32_t> live;       ///< sorted ids
    std::vector<std::uint32_t> retrying;   ///< retry queue, FIFO order
    std::vector<std::uint32_t> nodes_down; ///< ascending node ids
    bool degraded = false;

    friend bool operator==(const Snapshot&, const Snapshot&) = default;
  };
  [[nodiscard]] Snapshot snapshot() const;

  /// Predicted Eq. 16 latency per live request (ascending request id):
  /// Σ_chain W(f, k) + (distinct nodes − 1) · L.
  [[nodiscard]] std::vector<double> predicted_latencies() const;

  /// The timeline stream so far (requires snapshot_every > 0): every
  /// closed window plus, when `include_partial`, one record for the
  /// in-progress window ending at the last event time.  Pure function of
  /// the replayed prefix — byte-identical across resume splits.
  [[nodiscard]] obs::TimelineDoc timeline_doc(bool include_partial = true)
      const;

  /// Per-request lifecycle events in recording order (empty unless
  /// config().lifecycle).
  [[nodiscard]] const std::vector<obs::LifecycleEvent>& lifecycle_log()
      const {
    return lifecycle_;
  }

  /// The live request set as an offline Workload — VNFs with live traffic
  /// keep their definition with M_f = current active instance count, and
  /// requests are re-densified in ascending trace-id order.  Feeding this
  /// to core::JointOptimizer gives the "repeated full offline re-solve"
  /// comparator of bench_online.
  [[nodiscard]] workload::Workload live_workload() const;

  [[nodiscard]] const topo::Topology& topology() const { return topology_; }
  [[nodiscard]] const ServeConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t work() const { return work_; }

 private:
  struct Instance {
    std::uint32_t vnf = 0;
    std::uint32_t node = 0;
    std::uint64_t seq = 0;
    double raw_load = 0.0;
    double effective_load = 0.0;
    std::vector<std::uint32_t> members;  ///< sorted request ids
    bool retired = false;
    /// Scale-in in progress (autoscale only): excluded from every
    /// placement/relocation candidate scan; retired once the last member
    /// migrates off.  Always false when autoscaling is off.
    bool draining = false;
  };
  struct LiveRequest {
    double rate = 0.0;
    double prob = 1.0;
    std::vector<std::uint32_t> chain;
    std::vector<std::uint32_t> hop_instance;  ///< instance slot per hop
  };
  struct PendingRequest {
    std::uint32_t id = 0;
    double rate = 0.0;
    double prob = 1.0;
    std::vector<std::uint32_t> chain;
  };
  /// A fault-evacuated request waiting for capacity to return.
  struct RetryRequest {
    PendingRequest request;
    std::uint64_t not_before = 0;  ///< earliest event index to retry at
    std::uint32_t attempts = 0;    ///< failed retries so far
  };
  /// A tentative placement: per hop either an existing instance slot or a
  /// planned new instance on `node`.
  struct HopPlan {
    bool scale_out = false;
    std::uint32_t slot = 0;  ///< existing instance (when !scale_out)
    std::uint32_t node = 0;  ///< planned node (when scale_out)
  };
  /// least_loaded_fit's "exclude nothing"; never a real slot.
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  [[nodiscard]] double limit(std::uint32_t vnf) const;
  /// Best-fit node for one new instance of demand `demand`: used nodes
  /// first, smallest feasible residual, lower id on ties.  The per-node
  /// overlays scratch_.plan_use/plan_count account for instances the
  /// current plan already intends to open; clear_plan_overlay() zeroes
  /// them.
  [[nodiscard]] std::optional<std::uint32_t> pick_node(double demand);
  void clear_plan_overlay();
  /// Eq. 16 per live request in ascending id order, into `out`.
  void eval_latencies(std::vector<double>& out) const;
  /// Least-loaded non-draining instance of `vnf` that admits `eff` more
  /// effective load, skipping slot `exclude`; oldest on ties.  Each visited
  /// slot, the excluded one included, costs one unit of work_.
  [[nodiscard]] std::optional<std::uint32_t> least_loaded_fit(
      std::uint32_t vnf, double eff, std::uint32_t exclude = kNoSlot);
  /// Appends one hop to scratch_.hop_plan: the least-loaded fitting
  /// instance, else a new one on the best-fit node (charged to the plan
  /// overlay); false when neither exists.
  [[nodiscard]] bool plan_hop(std::uint32_t vnf, double eff);
  /// Plans every hop of a request into scratch_.hop_plan; false when some
  /// hop fits nowhere (the buffer then holds a partial plan).
  [[nodiscard]] bool plan_placement(double rate, double prob,
                                    const std::vector<std::uint32_t>& chain);
  /// Opens an instance and counts it as a scale-out.
  std::uint32_t open_instance(std::uint32_t vnf, std::uint32_t node,
                              EventOutcome& outcome);
  void retire_instance(std::uint32_t slot);
  void add_to_instance(std::uint32_t slot, std::uint32_t id, double rate,
                       double prob);
  /// Retires the instance, counted as a scale-in, when it empties.
  void remove_from_instance(std::uint32_t slot, std::uint32_t id, double rate,
                            double prob, EventOutcome& outcome);
  /// Commits one plan entry as hop `hop` of `r` (request `id`), opening the
  /// planned instance if any, and records `stage` (kPlace or kEvacuate).
  void place_hop(std::uint32_t id, LiveRequest& r, std::size_t hop,
                 const HopPlan& step, obs::LifecycleStage stage,
                 EventOutcome& outcome);
  /// Moves one hop of a live request to the least-loaded other instance
  /// that admits it, or, when `may_open`, to a fresh instance; false when
  /// nowhere admits it.
  bool move_hop(std::uint32_t id, std::size_t hop, bool may_open,
                EventOutcome& outcome);
  /// Commits scratch_.hop_plan: opens planned instances and assigns the
  /// request.
  void commit_placement(std::uint32_t id, double rate, double prob,
                        std::vector<std::uint32_t> chain,
                        EventOutcome& outcome);
  void remove_live(std::uint32_t id, EventOutcome& outcome);
  /// Integrates served/offered rate over [last_time_, now) for the
  /// availability metric; must run before the event mutates state.
  void accumulate_availability(double now);
  /// NODE_DOWN: closes the node's instances and runs the evacuation ladder
  /// over every affected request (DESIGN.md §13).
  void handle_node_down(const workload::StreamEvent& event,
                        EventOutcome& outcome);
  void handle_node_up(const workload::StreamEvent& event,
                      EventOutcome& outcome);
  /// Re-places every hop of `id` whose instance died; false when some hop
  /// fits nowhere (the caller parks or sheds the request).
  bool evacuate_request(std::uint32_t id, EventOutcome& outcome);
  /// Retries due retry-queue entries (not_before <= current event index),
  /// doubling the backoff per failure and shedding past the budget.
  void drain_retry_queue(EventOutcome& outcome,
                         std::vector<std::uint32_t>& touched_vnfs);
  /// Pushes this event's pressure bit and enters/exits degraded mode.
  void update_degradation(EventOutcome& outcome);
  /// While degraded: sheds the lowest-rate request (lowest id on ties)
  /// sitting on any over-limit instance, until none is over-limit.
  void shed_overloaded(EventOutcome& outcome);
  /// Bounded RCKK rebalance of one VNF; returns the move count.
  std::uint32_t rebalance(std::uint32_t vnf, EventOutcome& outcome);
  void rebalance_chain(const std::vector<std::uint32_t>& chain,
                       EventOutcome& outcome);
  void drain_queue(EventOutcome& outcome,
                   std::vector<std::uint32_t>& touched_vnfs);
  /// Rebalances each VNF in `touched` once, in ascending id order (sorts
  /// and dedups `touched` in place).
  void settle(std::vector<std::uint32_t>& touched, EventOutcome& outcome);
  /// Admits what the waiting room can now place, then settles `touched`
  /// plus the admitted chains.
  void drain_then_settle(std::vector<std::uint32_t>& touched,
                         EventOutcome& outcome);
  void finish_outcome(EventOutcome& outcome);
  /// on_event minus the outcome copy-out: appends to log_ and returns
  /// nothing.  The shared body of on_event and apply_batch.
  void process_event(const workload::StreamEvent& event);

  // --- elastic autoscaling (DESIGN.md §16) ---
  [[nodiscard]] bool autoscale_on() const {
    return config_.autoscale.enabled();
  }
  /// Crosses every scale_interval boundary up to `now`, evaluating the
  /// controller once per boundary (event-time driven, like the timeline).
  void run_autoscale(double now, EventOutcome& outcome);
  /// One controller evaluation: observe → decide → actuate → drain pass.
  void autoscale_decide(EventOutcome& outcome);
  /// Per-VNF offered rate / capacity / pressure at this boundary.
  void autoscale_observe(std::vector<VnfObservation>& out) const;
  /// Opens up to `count` instances of `vnf`; returns how many fit.
  std::uint32_t autoscale_open(std::uint32_t vnf, std::uint32_t count,
                               EventOutcome& outcome);
  /// Marks the `count` least-loaded instances of `vnf` draining.
  void autoscale_mark_draining(std::uint32_t vnf, std::uint32_t count);
  /// Migrates members off draining instances (≤ migration_budget moves per
  /// instance per call) and retires the ones that empty.
  void autoscale_drain_pass(EventOutcome& outcome);

  // --- streaming telemetry (DESIGN.md §14) ---
  [[nodiscard]] bool timeline_on() const {
    return config_.snapshot_every > 0.0;
  }
  [[nodiscard]] bool lifecycle_on() const { return config_.lifecycle; }
  /// Non-retired instances draining for scale-in.
  [[nodiscard]] std::uint64_t draining_count() const;
  /// Builds a record for [t_start, t_end) from the current state and the
  /// window integrals (shared by closed and partial windows).
  [[nodiscard]] obs::TimelineRecord make_window_record(
      double t_start, double t_end, double served_integral,
      double offered_integral) const;
  /// Seals the current window and opens the next.
  void close_window();
  /// Samples an admission wait and clears the pending mark.
  void note_admitted(std::uint32_t id, double now);
  void record_lifecycle(const EventOutcome& outcome, obs::LifecycleStage stage,
                        std::uint32_t request,
                        std::uint32_t node = obs::kLifecycleNoNode,
                        std::uint32_t rung = 0);

  topo::Topology topology_;
  std::vector<workload::Vnf> vnfs_;
  ServeConfig config_;
  double link_latency_ = 0.0;

  std::vector<Instance> instances_;  ///< append-only; retired slots flagged
  std::vector<std::vector<std::uint32_t>> active_of_vnf_;  ///< by seq order
  std::vector<double> node_free_;
  std::vector<std::uint32_t> node_instances_;
  std::vector<std::uint8_t> node_up_;          ///< 0 while failed
  FlatMap<std::uint32_t, LiveRequest> live_;   ///< ascending id order
  std::vector<PendingRequest> queue_;          ///< FIFO, front at [0]
  std::vector<RetryRequest> retry_queue_;      ///< FIFO, front at [0]
  /// Requests that exited without a trace-visible departure (rejected or
  /// shed): their later DEPART/RATE_CHANGE events are deliberate no-ops,
  /// because the trace generator cannot know the engine turned them away.
  /// Ordered so checkpoints serialize it deterministically.
  std::set<std::uint32_t> gone_;
  std::vector<EventOutcome> log_;
  double last_time_ = 0.0;
  bool saw_event_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t work_ = 0;

  // Transient per-event scratch (never checkpointed, never read across
  // events): the touched-VNF accumulator every settle step works on, and
  // the reader replay's reusable event buffer.
  std::vector<std::uint32_t> touched_scratch_;
  workload::StreamEvent decoded_;

  /// One live member of a VNF being rebalanced.
  struct RebalanceMember {
    std::uint32_t id = 0;
    std::uint32_t pos = 0;  ///< index into the VNF's rebalanced instances
    LiveRequest* request = nullptr;
  };
  /// The decision path's reused buffers (DESIGN.md §11.4).  They keep only
  /// capacity between calls, so copying an engine does not copy them: the
  /// copy starts empty and sizes its own on first use.
  struct DecisionScratch {
    DecisionScratch() = default;
    DecisionScratch(const DecisionScratch& /*other*/) {}
    DecisionScratch& operator=(const DecisionScratch& /*other*/) {
      return *this;
    }

    std::vector<double> latencies;          ///< Eq. 16 per live request
    std::vector<HopPlan> hop_plan;          ///< plan_placement's output
    std::vector<double> plan_use;           ///< per node: pick_node overlay
    std::vector<std::uint32_t> plan_count;  ///< per node: pick_node overlay
    // rebalance(): the VNF's non-draining instances (autoscale), its
    // members in id order, the rebuilt problem, RCKK's arena and target,
    // and the migration plan.
    std::vector<std::uint32_t> active;
    std::vector<RebalanceMember> members;
    std::vector<std::uint32_t> current;
    sched::SchedulingProblem problem;
    sched::KkWorkspace kk;
    sched::Schedule target;
    sched::MigrationWorkspace migration;
    sched::MigrationPlan plan;
  };
  DecisionScratch scratch_;

  // Degradation window: last `overload_window` pressure bits, oldest first.
  std::vector<std::uint8_t> pressure_window_;
  bool degraded_ = false;

  // Availability integrals: ∫rate dt, accumulated event by event (never
  // recomputed, so checkpoints restore them bit-exactly).
  double served_integral_ = 0.0;
  double offered_integral_ = 0.0;

  // Aggregates (summary() adds the live-state figures).
  ServeSummary totals_;

  // Elastic autoscaling state (DESIGN.md §16): engaged only when
  // config_.autoscale.policy != kOff and never touched otherwise, so an
  // autoscale-off engine stays byte-identical to the pre-subsystem format.
  std::optional<ScalingController> scaler_;
  std::uint64_t as_window_ = 0;        ///< decision boundaries crossed
  double instance_seconds_ = 0.0;      ///< ∫ active-instance count dt
  std::uint64_t as_opened_ = 0;        ///< instances opened by the controller
  std::uint64_t as_drained_ = 0;       ///< drains started by the controller
  std::vector<VnfObservation> as_obs_scratch_;  ///< transient, per boundary

  // Streaming telemetry state (engaged only when snapshot_every > 0 /
  // lifecycle; checkpointed so a resumed run reproduces the streams
  // byte-for-byte).  Windows are [k·Δ, (k+1)·Δ) in trace time; integrals
  // accumulate the same piecewise-constant rates as the availability
  // integrals, split at window boundaries.
  std::vector<obs::TimelineRecord> timeline_rows_;  ///< closed windows
  std::uint64_t window_index_ = 0;                  ///< current open window
  double win_served_ = 0.0;   ///< ∫ served rate over the open window
  double win_offered_ = 0.0;  ///< ∫ offered rate over the open window
  /// totals_ at the open of the current window; record counters are
  /// deltas against it, and the checkpoint keeps the subset they read.
  ServeSummary win_base_;
  /// Admission waits over the last `timeline_span` windows.
  std::optional<WindowedHistogram> wait_hist_;
  /// When a request started waiting (queued or parked) — for wait samples.
  std::map<std::uint32_t, double> pending_since_;
  std::vector<obs::LifecycleEvent> lifecycle_;

  // Checkpoint serializer/deserializer (src/serve/checkpoint.cc); state is
  // saved and restored verbatim so a resumed engine is bit-identical.
  friend struct CheckpointIo;
};

/// The run report's "serve" section (DESIGN.md §9), written from the same
/// field lists as the checkpoint's totals and log: the event counters, the
/// live-state figures, churn{...}, autoscale{...} when on, the Eq. 16 and
/// availability tail, timeline{...} when on, and, when `include_events`,
/// the "events_log".  The writer reads `engine` when called, so the engine
/// must outlive it.
[[nodiscard]] obs::SectionWriter report_section(const ServeEngine& engine,
                                                bool include_events);

inline constexpr std::string_view kFlightSchema = "nfvpr.flight/1";

/// The flight-recorder dump (DESIGN.md §14.3): {"schema":
/// "nfvpr.flight/1", "capacity": K, "recorded": log size, "entries": [...]}
/// with the last K entries of engine.log(), oldest first, each exactly an
/// "events_log" entry of the run report.  A resumed engine carries the
/// checkpointed log, so its dump equals the uninterrupted run's.
void write_flight_dump(const ServeEngine& engine, std::size_t capacity,
                       std::ostream& os);

}  // namespace nfv::serve
