#include "nfv/serve/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <span>
#include <string>
#include <utility>

#include "nfv/common/error.h"
#include "nfv/obs/json.h"
#include "nfv/scheduling/algorithm.h"

#include "field_lists.h"

namespace nfv::serve {

namespace {

[[noreturn]] void event_fail(const workload::StreamEvent& event,
                             const std::string& what) {
  const std::string subject =
      workload::is_node_event(event.kind)
          ? "node " + std::to_string(event.node)
          : "request " + std::to_string(event.request);
  throw workload::TraceParseError("event at t=" + std::to_string(event.time) +
                                  " (" + subject + "): " + what);
}

void insert_sorted(std::vector<std::uint32_t>& v, std::uint32_t x) {
  v.insert(std::lower_bound(v.begin(), v.end(), x), x);
}

void erase_sorted(std::vector<std::uint32_t>& v, std::uint32_t x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  NFV_CHECK(it != v.end() && *it == x);
  v.erase(it);
}

struct LatencyStats {
  double mean = 0.0;
  double p99 = 0.0;
};

/// Mean and p99 of Eq. 16 latencies, reordering `lat`.  The mean sums in
/// `lat`'s order (ascending request id).  The p99 is the element an
/// ascending sort would put at ceil(0.99·n) − 1: nth_element places
/// exactly that element there, without sorting the rest.
LatencyStats latency_stats(std::vector<double>& lat) {
  LatencyStats out;
  if (lat.empty()) return out;
  double sum = 0.0;
  for (const double x : lat) sum += x;
  out.mean = sum / static_cast<double>(lat.size());
  const std::size_t idx =
      static_cast<std::size_t>(
          std::ceil(0.99 * static_cast<double>(lat.size()))) -
      1;
  const auto nth = lat.begin() + static_cast<std::ptrdiff_t>(idx);
  std::nth_element(lat.begin(), nth, lat.end());
  out.p99 = *nth;
  return out;
}

}  // namespace

void ServeConfig::validate() const {
  // std::isfinite first: NaN fails every comparison, so spelling the check
  // this way gives each knob an explicit finite-and-in-range contract
  // instead of relying on NaN's comparison semantics.
  NFV_REQUIRE(std::isfinite(headroom) && headroom >= 0.0 && headroom < 1.0);
  NFV_REQUIRE(std::isfinite(rebalance_threshold) &&
              rebalance_threshold >= 0.0);
  NFV_REQUIRE(!link_latency.has_value() ||
              (std::isfinite(*link_latency) && *link_latency >= 0.0));
  NFV_REQUIRE(std::isfinite(overload_threshold) && overload_threshold > 0.0 &&
              overload_threshold <= 1.0);
  NFV_REQUIRE(std::isfinite(degraded_headroom) &&
              degraded_headroom >= headroom && degraded_headroom < 1.0);
  NFV_REQUIRE(retry_backoff_base >= 1);
  // The k-th backoff is retry_backoff_base << k for k up to retry_budget;
  // a shift that drops bits (or spans 64 or more) would be meaningless or
  // undefined.
  NFV_REQUIRE(retry_budget < 64 &&
              (retry_backoff_base << retry_budget) >> retry_budget ==
                  retry_backoff_base);
  NFV_REQUIRE(std::isfinite(snapshot_every) && snapshot_every >= 0.0);
  NFV_REQUIRE(timeline_span >= 1);
  autoscale.validate();
}

std::string_view to_string(Decision decision) {
  switch (decision) {
    case Decision::kAdmitted: return "admitted";
    case Decision::kQueued: return "queued";
    case Decision::kRejected: return "rejected";
    case Decision::kDeparted: return "departed";
    case Decision::kRateChanged: return "rate_changed";
    case Decision::kShed: return "shed";
    case Decision::kNodeDown: return "node_down";
    case Decision::kNodeUp: return "node_up";
  }
  return "?";
}

ServeEngine::ServeEngine(topo::Topology topology,
                         std::vector<workload::Vnf> vnfs, ServeConfig config)
    : topology_(std::move(topology)),
      vnfs_(std::move(vnfs)),
      config_(config) {
  NFV_REQUIRE(topology_.frozen());
  NFV_REQUIRE(topology_.compute_count() > 0);
  NFV_REQUIRE(!vnfs_.empty());
  config_.validate();
  for (const workload::Vnf& f : vnfs_) {
    NFV_REQUIRE(f.demand_per_instance > 0.0);
    NFV_REQUIRE(f.service_rate > 0.0);
  }
  link_latency_ = config_.link_latency.has_value()
                      ? *config_.link_latency
                      : topology_.mean_link_latency();
  active_of_vnf_.resize(vnfs_.size());
  const std::size_t nodes = topology_.compute_count();
  node_free_.reserve(nodes);
  for (std::uint32_t v = 0; v < nodes; ++v) {
    node_free_.push_back(topology_.capacity(NodeId(v)));
  }
  node_instances_.assign(nodes, 0);
  node_up_.assign(nodes, 1);
  if (timeline_on()) {
    // Waits longer than the whole sliding span land in the overflow
    // bucket; the exact min/max tracking still keeps p100 exact.
    wait_hist_.emplace(0.0, config_.snapshot_every *
                                static_cast<double>(config_.timeline_span),
                       64, config_.timeline_span);
  }
  if (autoscale_on()) {
    scaler_.emplace(config_.autoscale, vnfs_.size());
  }
}

double ServeEngine::limit(std::uint32_t vnf) const {
  const double h = degraded_ ? config_.degraded_headroom : config_.headroom;
  return (1.0 - h) * vnfs_[vnf].service_rate;
}

void ServeEngine::clear_plan_overlay() {
  scratch_.plan_use.assign(node_free_.size(), 0.0);
  scratch_.plan_count.assign(node_free_.size(), 0);
}

std::optional<std::uint32_t> ServeEngine::pick_node(double demand) {
  // BFDSU's used-nodes-first rule, incrementally: among nodes that already
  // host an instance (or will, per this plan) pick the smallest feasible
  // residual; only when none fits fall back to spare nodes.
  std::optional<std::uint32_t> best;
  double best_residual = std::numeric_limits<double>::infinity();
  const auto scan = [&](bool used_pass) {
    for (std::uint32_t v = 0; v < node_free_.size(); ++v) {
      ++work_;
      if (node_up_[v] == 0) continue;  // failed nodes leave the candidate set
      const bool used = node_instances_[v] > 0 || scratch_.plan_count[v] > 0;
      if (used != used_pass) continue;
      const double residual = node_free_[v] - scratch_.plan_use[v] - demand;
      if (residual < 0.0) continue;
      if (residual < best_residual) {
        best_residual = residual;
        best = v;
      }
    }
  };
  scan(true);
  if (!best) scan(false);
  return best;
}

std::optional<std::uint32_t> ServeEngine::least_loaded_fit(
    std::uint32_t vnf, double eff, std::uint32_t exclude) {
  // The active list is in creation order, so strict `<` keeps the oldest
  // on ties.
  const double cap = limit(vnf);
  std::optional<std::uint32_t> best;
  double best_load = std::numeric_limits<double>::infinity();
  for (const std::uint32_t slot : active_of_vnf_[vnf]) {
    ++work_;
    if (slot == exclude) continue;
    const Instance& inst = instances_[slot];
    if (inst.draining) continue;  // scale-in in progress: no new members
    if (inst.effective_load + eff > cap) continue;
    if (inst.effective_load < best_load) {
      best_load = inst.effective_load;
      best = slot;
    }
  }
  return best;
}

bool ServeEngine::plan_hop(std::uint32_t vnf, double eff) {
  std::vector<HopPlan>& plan = scratch_.hop_plan;
  if (const auto slot = least_loaded_fit(vnf, eff)) {
    plan.push_back({false, *slot, 0});
    return true;
  }
  if (eff > limit(vnf)) return false;  // too big even for a fresh instance
  const double demand = vnfs_[vnf].demand_per_instance;
  const auto node = pick_node(demand);
  if (!node) return false;
  plan.push_back({true, 0, *node});
  scratch_.plan_use[*node] += demand;
  ++scratch_.plan_count[*node];
  return true;
}

bool ServeEngine::plan_placement(double rate, double prob,
                                 const std::vector<std::uint32_t>& chain) {
  const double eff = rate / prob;
  scratch_.hop_plan.clear();
  clear_plan_overlay();
  for (const std::uint32_t f : chain) {
    if (!plan_hop(f, eff)) return false;
  }
  return true;
}

std::uint32_t ServeEngine::open_instance(std::uint32_t vnf, std::uint32_t node,
                                         EventOutcome& outcome) {
  const auto slot = static_cast<std::uint32_t>(instances_.size());
  Instance inst;
  inst.vnf = vnf;
  inst.node = node;
  inst.seq = next_seq_++;
  instances_.push_back(std::move(inst));
  active_of_vnf_[vnf].push_back(slot);
  node_free_[node] -= vnfs_[vnf].demand_per_instance;
  NFV_CHECK(node_free_[node] >= -1e-9);
  ++node_instances_[node];
  ++outcome.scale_outs;
  ++totals_.scale_outs;
  return slot;
}

void ServeEngine::retire_instance(std::uint32_t slot) {
  Instance& inst = instances_[slot];
  NFV_CHECK(!inst.retired && inst.members.empty());
  inst.retired = true;
  inst.draining = false;  // a retired instance has finished its drain
  inst.raw_load = 0.0;
  inst.effective_load = 0.0;
  auto& act = active_of_vnf_[inst.vnf];
  act.erase(std::find(act.begin(), act.end(), slot));
  node_free_[inst.node] += vnfs_[inst.vnf].demand_per_instance;
  --node_instances_[inst.node];
}

void ServeEngine::add_to_instance(std::uint32_t slot, std::uint32_t id,
                                  double rate, double prob) {
  Instance& inst = instances_[slot];
  NFV_CHECK(!inst.retired);
  insert_sorted(inst.members, id);
  inst.raw_load += rate;
  inst.effective_load += rate / prob;
}

void ServeEngine::remove_from_instance(std::uint32_t slot, std::uint32_t id,
                                       double rate, double prob,
                                       EventOutcome& outcome) {
  Instance& inst = instances_[slot];
  erase_sorted(inst.members, id);
  if (inst.members.empty()) {
    retire_instance(slot);
    ++outcome.scale_ins;
    ++totals_.scale_ins;
    return;
  }
  inst.raw_load -= rate;
  inst.effective_load -= rate / prob;
}

void ServeEngine::place_hop(std::uint32_t id, LiveRequest& r, std::size_t hop,
                            const HopPlan& step, obs::LifecycleStage stage,
                            EventOutcome& outcome) {
  const std::uint32_t slot =
      step.scale_out ? open_instance(r.chain[hop], step.node, outcome)
                     : step.slot;
  add_to_instance(slot, id, r.rate, r.prob);
  r.hop_instance[hop] = slot;
  if (lifecycle_on()) {
    record_lifecycle(outcome, stage, id, instances_[slot].node,
                     static_cast<std::uint32_t>(hop));
  }
}

bool ServeEngine::move_hop(std::uint32_t id, std::size_t hop, bool may_open,
                           EventOutcome& outcome) {
  LiveRequest& r = live_.at(id);
  const std::uint32_t f = r.chain[hop];
  const std::uint32_t cur = r.hop_instance[hop];
  const double eff = r.rate / r.prob;
  std::optional<std::uint32_t> best = least_loaded_fit(f, eff, cur);
  if (!best && may_open && eff <= limit(f)) {
    clear_plan_overlay();
    if (const auto node = pick_node(vnfs_[f].demand_per_instance)) {
      best = open_instance(f, *node, outcome);
    }
  }
  if (!best) return false;

  remove_from_instance(cur, id, r.rate, r.prob, outcome);
  add_to_instance(*best, id, r.rate, r.prob);
  r.hop_instance[hop] = *best;
  ++outcome.migrations;
  ++totals_.migrations;
  if (lifecycle_on()) {
    record_lifecycle(outcome, obs::LifecycleStage::kMigrate, id,
                     instances_[*best].node, static_cast<std::uint32_t>(hop));
  }
  return true;
}

void ServeEngine::commit_placement(std::uint32_t id, double rate, double prob,
                                   std::vector<std::uint32_t> chain,
                                   EventOutcome& outcome) {
  const std::vector<HopPlan>& plan = scratch_.hop_plan;
  LiveRequest r;
  r.rate = rate;
  r.prob = prob;
  r.chain = std::move(chain);
  r.hop_instance.assign(plan.size(), 0);
  for (std::size_t h = 0; h < plan.size(); ++h) {
    place_hop(id, r, h, plan[h], obs::LifecycleStage::kPlace, outcome);
  }
  live_.emplace(id, std::move(r));
}

void ServeEngine::remove_live(std::uint32_t id, EventOutcome& outcome) {
  const auto it = live_.find(id);
  NFV_CHECK(it != live_.end());
  const LiveRequest& r = it->second;
  for (std::size_t h = 0; h < r.chain.size(); ++h) {
    remove_from_instance(r.hop_instance[h], id, r.rate, r.prob, outcome);
  }
  live_.erase(it);
}

std::uint32_t ServeEngine::rebalance(std::uint32_t vnf,
                                     EventOutcome& outcome) {
  DecisionScratch& scratch = scratch_;
  // Draining instances are leaving the capacity set: the RCKK re-solve
  // runs over the survivors only, so a rebalance never refills a drain.
  const std::vector<std::uint32_t>* act_ptr = &active_of_vnf_[vnf];
  if (autoscale_on()) {
    scratch.active.clear();
    for (const std::uint32_t slot : *act_ptr) {
      if (!instances_[slot].draining) scratch.active.push_back(slot);
    }
    act_ptr = &scratch.active;
  }
  const auto& act = *act_ptr;
  const auto m = static_cast<std::uint32_t>(act.size());
  if (m < 2 || config_.migration_budget == 0) return 0;

  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  double sum = 0.0;
  for (const std::uint32_t slot : act) {
    const double load = instances_[slot].effective_load;
    lo = std::min(lo, load);
    hi = std::max(hi, load);
    sum += load;
  }
  if (sum <= 0.0) return 0;
  const double mean = sum / static_cast<double>(m);
  if ((hi - lo) / mean <= config_.rebalance_threshold) return 0;

  // Gather this VNF's live members in ascending request-id order so the
  // problem positions are deterministic, then re-solve with RCKK and walk
  // at most K moves toward its partition.  live_ is in ascending id order
  // too, so one forward cursor finds every member; the moves below reuse
  // the pointer (live_ does not change until this rebalance returns).
  scratch.members.clear();
  for (std::uint32_t pos = 0; pos < m; ++pos) {
    for (const std::uint32_t id : instances_[act[pos]].members) {
      scratch.members.push_back({id, pos, nullptr});
    }
  }
  std::sort(scratch.members.begin(), scratch.members.end(),
            [](const RebalanceMember& a, const RebalanceMember& b) {
              if (a.id != b.id) return a.id < b.id;
              return a.pos < b.pos;
            });

  sched::SchedulingProblem& problem = scratch.problem;
  problem.service_rate = vnfs_[vnf].service_rate;
  problem.instance_count = m;
  problem.arrival_rates.clear();
  problem.delivery_probs.clear();
  scratch.current.clear();
  auto cursor = live_.begin();
  for (RebalanceMember& member : scratch.members) {
    while (cursor != live_.end() && cursor->first < member.id) ++cursor;
    NFV_CHECK(cursor != live_.end() && cursor->first == member.id);
    member.request = &cursor->second;
    problem.arrival_rates.push_back(member.request->rate);
    problem.delivery_probs.push_back(member.request->prob);
    scratch.current.push_back(member.pos);
  }

  sched::rckk_schedule(problem, scratch.kk, scratch.target);
  sched::plan_bounded_migration(problem, scratch.current, scratch.target,
                                config_.migration_budget, limit(vnf),
                                scratch.migration, scratch.plan);
  const sched::MigrationPlan& plan = scratch.plan;
  NFV_CHECK(plan.moves.size() <= config_.migration_budget);
  work_ += scratch.target.work + plan.moves.size();

  for (const sched::MigrationMove& move : plan.moves) {
    const std::uint32_t id = scratch.members[move.request].id;
    LiveRequest& r = *scratch.members[move.request].request;
    const std::uint32_t from_slot = act[move.from];
    const std::uint32_t to_slot = act[move.to];
    Instance& from = instances_[from_slot];
    Instance& to = instances_[to_slot];
    erase_sorted(from.members, id);
    insert_sorted(to.members, id);
    const double eff = r.rate / r.prob;
    from.raw_load -= r.rate;
    from.effective_load -= eff;
    to.raw_load += r.rate;
    to.effective_load += eff;
    for (std::size_t h = 0; h < r.chain.size(); ++h) {
      if (r.hop_instance[h] == from_slot && r.chain[h] == vnf) {
        r.hop_instance[h] = to_slot;
      }
    }
    if (lifecycle_on()) {
      // Rebalance moves act on a VNF, not a hop index, so the detail
      // field carries the VNF id here.
      record_lifecycle(outcome, obs::LifecycleStage::kMigrate, id, to.node,
                       vnf);
    }
  }
  if (!plan.moves.empty()) {
    ++totals_.rebalances;
    const auto n = static_cast<std::uint32_t>(plan.moves.size());
    totals_.migrations += n;
    totals_.max_migrations_per_rebalance =
        std::max<std::uint64_t>(totals_.max_migrations_per_rebalance, n);
    outcome.migrations += n;
    return n;
  }
  return 0;
}

void ServeEngine::rebalance_chain(const std::vector<std::uint32_t>& chain,
                                  EventOutcome& outcome) {
  for (const std::uint32_t f : chain) rebalance(f, outcome);
}

void ServeEngine::drain_queue(EventOutcome& outcome,
                              std::vector<std::uint32_t>& touched_vnfs) {
  while (!queue_.empty()) {
    const PendingRequest& head = queue_.front();
    if (!plan_placement(head.rate, head.prob, head.chain)) {
      break;  // FIFO: never admit past a blocked head
    }
    PendingRequest p = std::move(queue_.front());
    queue_.erase(queue_.begin());
    touched_vnfs.insert(touched_vnfs.end(), p.chain.begin(), p.chain.end());
    note_admitted(p.id, outcome.time);
    if (lifecycle_on()) {
      record_lifecycle(outcome, obs::LifecycleStage::kAdmit, p.id);
    }
    commit_placement(p.id, p.rate, p.prob, std::move(p.chain), outcome);
    ++outcome.admitted_from_queue;
    ++totals_.admitted_from_queue;
  }
}

void ServeEngine::settle(std::vector<std::uint32_t>& touched,
                         EventOutcome& outcome) {
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  rebalance_chain(touched, outcome);
}

void ServeEngine::drain_then_settle(std::vector<std::uint32_t>& touched,
                                    EventOutcome& outcome) {
  drain_queue(outcome, touched);
  settle(touched, outcome);
}

void ServeEngine::accumulate_availability(double now) {
  double served = 0.0;
  for (const auto& [id, r] : live_) served += r.rate;
  double offered = served;
  for (const PendingRequest& p : queue_) offered += p.rate;
  for (const RetryRequest& p : retry_queue_) offered += p.request.rate;

  if (timeline_on()) {
    // Close every window ending at or before `now`, splitting the gap's
    // piecewise-constant rates at each boundary: state is unchanged over
    // [last_time_, now), so the pre-event rates are exact.  Event-time
    // driven — never wall clock — which is the determinism contract of
    // the timeline stream (DESIGN.md §14).
    double cursor = saw_event_ ? last_time_ : 0.0;
    const double delta = config_.snapshot_every;
    for (;;) {
      const double wend =
          static_cast<double>(window_index_ + 1) * delta;
      if (wend > now) break;
      const double dt = wend - cursor;
      win_served_ += dt * served;
      win_offered_ += dt * offered;
      close_window();
      cursor = wend;
    }
    if (now > cursor) {
      win_served_ += (now - cursor) * served;
      win_offered_ += (now - cursor) * offered;
    }
  }

  // The global availability integrals take the gap in one piece, so a
  // telemetry-enabled run reports bit-identical availability to a
  // telemetry-off run.
  if (!saw_event_ || now <= last_time_) return;
  const double dt = now - last_time_;
  served_integral_ += dt * served;
  offered_integral_ += dt * offered;
  if (autoscale_on()) {
    // The capacity bill the bench scores against the offline oracle:
    // ∫ active-instance count dt, event-by-event like the integrals above
    // so checkpoints restore it bit-exactly.
    std::uint64_t active = 0;
    for (const auto& act : active_of_vnf_) active += act.size();
    instance_seconds_ += dt * static_cast<double>(active);
  }
}

std::uint64_t ServeEngine::draining_count() const {
  std::uint64_t draining = 0;
  for (const auto& act : active_of_vnf_) {
    for (const std::uint32_t slot : act) {
      if (instances_[slot].draining) ++draining;
    }
  }
  return draining;
}

obs::TimelineRecord ServeEngine::make_window_record(
    double t_start, double t_end, double served_integral,
    double offered_integral) const {
  obs::TimelineRecord rec;
  rec.window = window_index_;
  rec.t_start = t_start;
  rec.t_end = t_end;
  rec.events = totals_.events - win_base_.events;
  const double width = t_end - t_start;
  rec.offered_rate = width > 0.0 ? offered_integral / width : 0.0;
  rec.carried_rate = width > 0.0 ? served_integral / width : 0.0;
  rec.availability =
      offered_integral > 0.0 ? served_integral / offered_integral : 1.0;
  rec.live = live_.size();
  rec.queued = queue_.size();
  rec.retrying = retry_queue_.size();
  rec.admitted = totals_.admitted - win_base_.admitted;
  rec.admitted_from_queue =
      totals_.admitted_from_queue - win_base_.admitted_from_queue;
  rec.retry_admitted = totals_.retry_admitted - win_base_.retry_admitted;
  rec.rejected = totals_.rejected - win_base_.rejected;
  rec.shed = (totals_.shed - win_base_.shed) +
             (totals_.shed_fault - win_base_.shed_fault) +
             (totals_.shed_overload - win_base_.shed_overload);
  rec.evacuated =
      totals_.evacuated_requests - win_base_.evacuated_requests;
  rec.parked = totals_.parked - win_base_.parked;
  rec.migrations = totals_.migrations - win_base_.migrations;
  rec.degraded = degraded_;
  if (autoscale_on()) {
    rec.has_autoscale = true;
    std::uint64_t active = 0;
    for (const auto& act : active_of_vnf_) active += act.size();
    rec.instances = active;
    rec.draining = draining_count();
    rec.scale_outs = totals_.scale_outs - win_base_.scale_outs;
    rec.scale_ins = totals_.scale_ins - win_base_.scale_ins;
  }
  std::uint64_t down = 0;
  rec.node_util.reserve(node_free_.size());
  for (std::uint32_t v = 0; v < node_free_.size(); ++v) {
    if (node_up_[v] == 0) {
      ++down;
      rec.node_util.push_back(0.0);
      continue;
    }
    const double cap = topology_.capacity(NodeId(v));
    rec.node_util.push_back(cap > 0.0 ? (cap - node_free_[v]) / cap : 0.0);
  }
  rec.nodes_down = down;
  const Histogram waits = wait_hist_->merged();
  rec.wait_count = waits.count();
  if (waits.count() > 0) {
    rec.wait_p50 = waits.quantile(0.50);
    rec.wait_p90 = waits.quantile(0.90);
    rec.wait_p99 = waits.quantile(0.99);
  }
  return rec;
}

void ServeEngine::close_window() {
  const double delta = config_.snapshot_every;
  timeline_rows_.push_back(make_window_record(
      static_cast<double>(window_index_) * delta,
      static_cast<double>(window_index_ + 1) * delta, win_served_,
      win_offered_));
  wait_hist_->rotate();
  win_base_ = totals_;
  win_served_ = 0.0;
  win_offered_ = 0.0;
  ++window_index_;
}

void ServeEngine::note_admitted(std::uint32_t id, double now) {
  if (!timeline_on()) return;
  const auto it = pending_since_.find(id);
  if (it == pending_since_.end()) {
    wait_hist_->add(0.0);  // admitted on arrival: no wait
    return;
  }
  wait_hist_->add(now - it->second);
  pending_since_.erase(it);
}

void ServeEngine::record_lifecycle(const EventOutcome& outcome,
                                   obs::LifecycleStage stage,
                                   std::uint32_t request, std::uint32_t node,
                                   std::uint32_t rung) {
  lifecycle_.push_back(
      {outcome.index, outcome.time, request, stage, node, rung});
}

obs::TimelineDoc ServeEngine::timeline_doc(bool include_partial) const {
  NFV_REQUIRE(timeline_on());
  obs::TimelineDoc doc;
  doc.snapshot_every = config_.snapshot_every;
  doc.nodes = node_free_.size();
  doc.records = timeline_rows_;
  if (include_partial && saw_event_) {
    const double t_start =
        static_cast<double>(window_index_) * config_.snapshot_every;
    if (last_time_ > t_start || totals_.events > win_base_.events) {
      doc.records.push_back(
          make_window_record(t_start, last_time_, win_served_, win_offered_));
    }
  }
  return doc;
}

bool ServeEngine::evacuate_request(std::uint32_t id, EventOutcome& outcome) {
  LiveRequest& r = live_.at(id);
  const double eff = r.rate / r.prob;
  // Plan every broken hop (one whose instance died) before touching state,
  // with node overlays so two scale-outs of one request share residual
  // bookkeeping (as in plan_placement); an all-or-nothing commit keeps the
  // failure path clean.
  const auto broken = [&](std::size_t h) {
    return instances_[r.hop_instance[h]].retired;
  };
  std::vector<HopPlan>& plan = scratch_.hop_plan;
  plan.clear();
  clear_plan_overlay();
  for (std::size_t h = 0; h < r.chain.size(); ++h) {
    if (broken(h) && !plan_hop(r.chain[h], eff)) return false;
  }
  NFV_CHECK(!plan.empty());

  std::size_t k = 0;
  for (std::size_t h = 0; h < r.chain.size(); ++h) {
    if (!broken(h)) continue;
    place_hop(id, r, h, plan[k++], obs::LifecycleStage::kEvacuate, outcome);
  }
  const auto moves = static_cast<std::uint32_t>(plan.size());
  outcome.evacuation_migrations += moves;
  totals_.evacuation_migrations += moves;
  ++outcome.evacuated;
  ++totals_.evacuated_requests;
  return true;
}

void ServeEngine::handle_node_down(const workload::StreamEvent& event,
                                   EventOutcome& outcome) {
  const std::uint32_t node = event.node;
  if (node >= node_free_.size()) {
    event_fail(event, "unknown node id (topology has " +
                          std::to_string(node_free_.size()) +
                          " compute nodes)");
  }
  if (node_up_[node] == 0) event_fail(event, "node is already down");
  ++totals_.node_downs;
  outcome.decision = Decision::kNodeDown;
  node_up_[node] = 0;
  node_free_[node] = 0.0;

  // Force-close this node's instances in slot (= creation) order and
  // collect the requests they carried.  Closure is not a graceful scale-in:
  // the capacity is simply gone.
  std::vector<std::uint32_t> affected;
  for (std::uint32_t slot = 0;
       slot < static_cast<std::uint32_t>(instances_.size()); ++slot) {
    Instance& inst = instances_[slot];
    if (inst.retired || inst.node != node) continue;
    affected.insert(affected.end(), inst.members.begin(), inst.members.end());
    inst.retired = true;
    // A drain in progress dies with the node: the members land in
    // `affected` and ride the evacuation ladder like everyone else, so a
    // mid-drain NODE_DOWN strands nothing.
    inst.draining = false;
    inst.raw_load = 0.0;
    inst.effective_load = 0.0;
    inst.members.clear();
    auto& act = active_of_vnf_[inst.vnf];
    act.erase(std::find(act.begin(), act.end(), slot));
    ++totals_.instances_closed;
    ++work_;
  }
  node_instances_[node] = 0;
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());

  // Evacuation ladder, ascending request id: re-place every broken hop on
  // survivors (scaling out replacements if needed); a request that fits
  // nowhere is unbound from its surviving hops and parked for backoff
  // retry, shedding only when even the retry queue is full.
  std::vector<std::uint32_t>& touched = touched_scratch_;
  touched.clear();
  for (const std::uint32_t id : affected) {
    if (evacuate_request(id, outcome)) {
      const LiveRequest& r = live_.at(id);
      touched.insert(touched.end(), r.chain.begin(), r.chain.end());
      continue;
    }
    LiveRequest moved = std::move(live_.at(id));
    for (std::size_t h = 0; h < moved.chain.size(); ++h) {
      if (instances_[moved.hop_instance[h]].retired) continue;
      remove_from_instance(moved.hop_instance[h], id, moved.rate, moved.prob,
                           outcome);
    }
    live_.erase(id);
    if (retry_queue_.size() < config_.queue_capacity) {
      RetryRequest retry;
      retry.request = {id, moved.rate, moved.prob, std::move(moved.chain)};
      retry.not_before = outcome.index + config_.retry_backoff_base;
      retry_queue_.push_back(std::move(retry));
      ++outcome.parked;
      ++totals_.parked;
      if (timeline_on()) pending_since_[id] = outcome.time;
      if (lifecycle_on()) {
        record_lifecycle(outcome, obs::LifecycleStage::kPark, id);
      }
    } else {
      ++outcome.shed_fault;
      ++totals_.shed_fault;
      gone_.insert(id);
      if (lifecycle_on()) {
        record_lifecycle(outcome, obs::LifecycleStage::kShedFault, id);
      }
    }
  }
  settle(touched, outcome);
}

void ServeEngine::handle_node_up(const workload::StreamEvent& event,
                                 EventOutcome& outcome) {
  const std::uint32_t node = event.node;
  if (node >= node_free_.size()) {
    event_fail(event, "unknown node id (topology has " +
                          std::to_string(node_free_.size()) +
                          " compute nodes)");
  }
  if (node_up_[node] != 0) event_fail(event, "node is not down");
  ++totals_.node_ups;
  outcome.decision = Decision::kNodeUp;
  node_up_[node] = 1;
  node_free_[node] = topology_.capacity(NodeId(node));
  NFV_CHECK(node_instances_[node] == 0);
  // Recovered capacity may unblock the waiting room right away; parked
  // requests instead flow through the backoff-gated retry pass.
  touched_scratch_.clear();
  drain_then_settle(touched_scratch_, outcome);
}

void ServeEngine::drain_retry_queue(EventOutcome& outcome,
                                    std::vector<std::uint32_t>& touched_vnfs) {
  const std::uint64_t index = outcome.index;
  for (std::size_t i = 0; i < retry_queue_.size();) {
    RetryRequest& entry = retry_queue_[i];
    if (entry.not_before > index) {
      ++i;
      continue;
    }
    if (plan_placement(entry.request.rate, entry.request.prob,
                       entry.request.chain)) {
      const std::uint32_t rung = entry.attempts;
      PendingRequest admitted = std::move(entry.request);
      retry_queue_.erase(retry_queue_.begin() +
                         static_cast<std::ptrdiff_t>(i));
      touched_vnfs.insert(touched_vnfs.end(), admitted.chain.begin(),
                          admitted.chain.end());
      note_admitted(admitted.id, outcome.time);
      if (lifecycle_on()) {
        record_lifecycle(outcome, obs::LifecycleStage::kRetryAdmit,
                         admitted.id, obs::kLifecycleNoNode, rung);
      }
      commit_placement(admitted.id, admitted.rate, admitted.prob,
                       std::move(admitted.chain), outcome);
      ++outcome.retry_admitted;
      ++totals_.retry_admitted;
      continue;
    }
    ++entry.attempts;
    if (entry.attempts > config_.retry_budget) {
      const std::uint32_t id = entry.request.id;
      gone_.insert(id);
      retry_queue_.erase(retry_queue_.begin() +
                         static_cast<std::ptrdiff_t>(i));
      ++outcome.shed_fault;
      ++totals_.shed_fault;
      if (timeline_on()) pending_since_.erase(id);
      if (lifecycle_on()) {
        record_lifecycle(outcome, obs::LifecycleStage::kShedFault, id);
      }
      continue;
    }
    entry.not_before = index + (config_.retry_backoff_base << entry.attempts);
    if (lifecycle_on()) {
      record_lifecycle(outcome, obs::LifecycleStage::kRetryBackoff,
                       entry.request.id, obs::kLifecycleNoNode,
                       entry.attempts);
    }
    ++i;
  }
}

void ServeEngine::shed_overloaded(EventOutcome& outcome) {
  for (;;) {
    std::optional<std::uint32_t> victim;
    double victim_rate = std::numeric_limits<double>::infinity();
    for (const auto& [id, r] : live_) {
      ++work_;
      bool over = false;
      for (std::size_t h = 0; h < r.chain.size() && !over; ++h) {
        over = instances_[r.hop_instance[h]].effective_load >
               limit(r.chain[h]);
      }
      if (!over) continue;
      if (r.rate < victim_rate) {  // strict <, map order: lowest id on ties
        victim_rate = r.rate;
        victim = id;
      }
    }
    if (!victim) return;
    remove_live(*victim, outcome);
    gone_.insert(*victim);
    ++outcome.shed_overload;
    ++totals_.shed_overload;
    if (lifecycle_on()) {
      record_lifecycle(outcome, obs::LifecycleStage::kShedOverload, *victim);
    }
  }
}

void ServeEngine::update_degradation(EventOutcome& outcome) {
  if (config_.overload_window == 0) {
    outcome.degraded = degraded_;
    return;
  }
  const bool pressured = outcome.decision == Decision::kQueued ||
                         outcome.decision == Decision::kRejected ||
                         !queue_.empty() || !retry_queue_.empty();
  pressure_window_.push_back(pressured ? 1 : 0);
  if (pressure_window_.size() > config_.overload_window) {
    pressure_window_.erase(pressure_window_.begin());
  }
  std::size_t ones = 0;
  for (const std::uint8_t b : pressure_window_) ones += b;
  const bool full = pressure_window_.size() == config_.overload_window;
  const double frac = static_cast<double>(ones) /
                      static_cast<double>(config_.overload_window);
  if (!degraded_ && full && frac >= config_.overload_threshold) {
    degraded_ = true;  // tightens limit() for the shed pass and onwards
    ++totals_.degradations;
    shed_overloaded(outcome);
  } else if (degraded_ && frac <= 0.5 * config_.overload_threshold) {
    degraded_ = false;  // relaxed headroom may admit the backlog again
    touched_scratch_.clear();
    drain_then_settle(touched_scratch_, outcome);
  }
  if (degraded_) ++totals_.degraded_events;
  outcome.degraded = degraded_;
}

void ServeEngine::run_autoscale(double now, EventOutcome& outcome) {
  const double delta = config_.autoscale.scale_interval;
  // Cross every elapsed boundary, one decision each — a burst of events
  // inside one window still yields exactly one evaluation per window, so
  // batch size cannot change the decision sequence.
  while (static_cast<double>(as_window_ + 1) * delta <= now) {
    ++as_window_;
    autoscale_decide(outcome);
  }
}

void ServeEngine::autoscale_observe(std::vector<VnfObservation>& out) const {
  out.assign(vnfs_.size(), VnfObservation{});
  for (std::uint32_t f = 0; f < vnfs_.size(); ++f) {
    out[f].capacity_per_instance = limit(f);
  }
  for (const Instance& inst : instances_) {
    if (inst.retired) continue;
    // Draining load still counts as offered — it has to land somewhere —
    // but a draining instance is not capacity the policy may size against.
    if (!inst.draining) ++out[inst.vnf].instances;
    out[inst.vnf].offered += inst.effective_load;
  }
  for (const PendingRequest& p : queue_) {
    for (const std::uint32_t f : p.chain) {
      out[f].offered += p.rate / p.prob;
      ++out[f].waiting;
    }
  }
  for (const RetryRequest& entry : retry_queue_) {
    for (const std::uint32_t f : entry.request.chain) {
      out[f].offered += entry.request.rate / entry.request.prob;
      ++out[f].waiting;
    }
  }
}

void ServeEngine::autoscale_decide(EventOutcome& outcome) {
  autoscale_observe(as_obs_scratch_);
  work_ += instances_.size() + queue_.size() + retry_queue_.size();
  const std::vector<std::int32_t>& deltas =
      scaler_->on_window(as_window_, as_obs_scratch_);
  bool opened = false;
  for (std::uint32_t f = 0; f < deltas.size(); ++f) {
    const std::int32_t d = deltas[f];
    if (d > 0) {
      if (autoscale_open(f, static_cast<std::uint32_t>(d), outcome) > 0) {
        opened = true;
      }
    } else if (d < 0) {
      autoscale_mark_draining(f, static_cast<std::uint32_t>(-d));
    }
  }
  autoscale_drain_pass(outcome);
  if (opened) {
    // Fresh capacity may admit the backlog: same drain-then-settle step
    // the degradation exit uses.
    touched_scratch_.clear();
    drain_then_settle(touched_scratch_, outcome);
  }
}

std::uint32_t ServeEngine::autoscale_open(std::uint32_t vnf,
                                          std::uint32_t count,
                                          EventOutcome& outcome) {
  clear_plan_overlay();
  std::uint32_t opened = 0;
  for (; opened < count; ++opened) {
    const auto node = pick_node(vnfs_[vnf].demand_per_instance);
    if (!node) break;  // cluster full: partial scale-out is fine
    open_instance(vnf, *node, outcome);
    ++as_opened_;
  }
  return opened;
}

void ServeEngine::autoscale_mark_draining(std::uint32_t vnf,
                                          std::uint32_t count) {
  for (std::uint32_t k = 0; k < count; ++k) {
    // Least-loaded active instance; `<=` while scanning creation order
    // prefers the newest on ties, so the oldest instances stay put.
    std::optional<std::uint32_t> victim;
    double victim_load = std::numeric_limits<double>::infinity();
    for (const std::uint32_t slot : active_of_vnf_[vnf]) {
      ++work_;
      const Instance& inst = instances_[slot];
      if (inst.draining) continue;
      if (inst.effective_load <= victim_load) {
        victim_load = inst.effective_load;
        victim = slot;
      }
    }
    if (!victim) return;
    instances_[*victim].draining = true;
    ++as_drained_;
  }
}

void ServeEngine::autoscale_drain_pass(EventOutcome& outcome) {
  for (std::uint32_t slot = 0;
       slot < static_cast<std::uint32_t>(instances_.size()); ++slot) {
    if (instances_[slot].retired || !instances_[slot].draining) continue;
    // Snapshot the member list: move_hop edits it under us.
    const std::vector<std::uint32_t> members = instances_[slot].members;
    std::uint32_t moves = 0;
    for (const std::uint32_t id : members) {
      if (moves >= config_.migration_budget) break;
      if (instances_[slot].retired) break;
      const LiveRequest& r = live_.at(id);
      for (std::size_t h = 0; h < r.chain.size(); ++h) {
        if (r.hop_instance[h] != slot) continue;
        // A drain never opens an instance: a drain that needs fresh
        // capacity is one the controller should not have started, and the
        // member waits for a later pass to find room.
        if (move_hop(id, h, /*may_open=*/false, outcome)) ++moves;
        break;  // one hop per member per pass keeps the budget honest
      }
    }
    Instance& inst = instances_[slot];
    if (!inst.retired && inst.members.empty()) {
      retire_instance(slot);
      ++outcome.scale_ins;
      ++totals_.scale_ins;
    }
  }
}

void ServeEngine::finish_outcome(EventOutcome& outcome) {
  eval_latencies(scratch_.latencies);
  const LatencyStats lat = latency_stats(scratch_.latencies);
  outcome.mean_predicted_latency = lat.mean;
  outcome.p99_predicted_latency = lat.p99;
  ++totals_.events;
  log_.push_back(outcome);
}

EventOutcome ServeEngine::on_event(const workload::StreamEvent& event) {
  process_event(event);
  return log_.back();
}

void ServeEngine::process_event(const workload::StreamEvent& event) {
  if (saw_event_ && event.time < last_time_) {
    event_fail(event, "non-monotonic timestamp " + std::to_string(event.time) +
                          " after " + std::to_string(last_time_));
  }
  accumulate_availability(event.time);
  saw_event_ = true;
  last_time_ = event.time;

  EventOutcome outcome;
  outcome.index = log_.size();
  outcome.time = event.time;
  outcome.kind = event.kind;
  outcome.request = event.request;

  const auto queued_pos = [&] {
    return std::find_if(queue_.begin(), queue_.end(),
                        [&](const PendingRequest& p) {
                          return p.id == event.request;
                        });
  };
  const auto retry_pos = [&] {
    return std::find_if(retry_queue_.begin(), retry_queue_.end(),
                        [&](const RetryRequest& p) {
                          return p.request.id == event.request;
                        });
  };

  switch (event.kind) {
    case workload::StreamEventKind::kArrive: {
      ++totals_.arrivals;
      if (live_.count(event.request) != 0 || queued_pos() != queue_.end() ||
          retry_pos() != retry_queue_.end()) {
        event_fail(event, "arrival of a request that is already live");
      }
      if (event.rate <= 0.0 || event.delivery_prob <= 0.0 ||
          event.delivery_prob > 1.0) {
        event_fail(event, "invalid rate/delivery_prob");
      }
      for (const std::uint32_t f : event.chain) {
        if (f >= vnfs_.size()) event_fail(event, "chain VNF out of range");
      }
      if (event.chain.empty()) event_fail(event, "empty chain");
      if (plan_placement(event.rate, event.delivery_prob, event.chain)) {
        note_admitted(event.request, event.time);
        if (lifecycle_on()) {
          record_lifecycle(outcome, obs::LifecycleStage::kAdmit,
                           event.request);
        }
        commit_placement(event.request, event.rate, event.delivery_prob,
                         event.chain, outcome);
        outcome.decision = Decision::kAdmitted;
        ++totals_.admitted;
        rebalance_chain(event.chain, outcome);
      } else if (queue_.size() < config_.queue_capacity) {
        queue_.push_back({event.request, event.rate, event.delivery_prob,
                          event.chain});
        outcome.decision = Decision::kQueued;
        if (timeline_on()) pending_since_[event.request] = event.time;
        if (lifecycle_on()) {
          record_lifecycle(outcome, obs::LifecycleStage::kQueue,
                           event.request);
        }
      } else {
        outcome.decision = Decision::kRejected;
        ++totals_.rejected;
        gone_.insert(event.request);
        if (lifecycle_on()) {
          record_lifecycle(outcome, obs::LifecycleStage::kReject,
                           event.request);
        }
      }
      break;
    }
    case workload::StreamEventKind::kDepart: {
      outcome.decision = Decision::kDeparted;
      std::vector<std::uint32_t>& touched = touched_scratch_;
      touched.clear();
      if (const auto it = live_.find(event.request); it != live_.end()) {
        ++totals_.departures;
        touched = it->second.chain;
        remove_live(event.request, outcome);
        if (lifecycle_on()) {
          record_lifecycle(outcome, obs::LifecycleStage::kDepart,
                           event.request);
        }
      } else if (const auto qit = queued_pos(); qit != queue_.end()) {
        ++totals_.departures;
        queue_.erase(qit);
        if (timeline_on()) pending_since_.erase(event.request);
        if (lifecycle_on()) {
          record_lifecycle(outcome, obs::LifecycleStage::kDepart,
                           event.request);
        }
      } else if (const auto rit = retry_pos(); rit != retry_queue_.end()) {
        ++totals_.departures;
        retry_queue_.erase(rit);
        if (timeline_on()) pending_since_.erase(event.request);
        if (lifecycle_on()) {
          record_lifecycle(outcome, obs::LifecycleStage::kDepart,
                           event.request);
        }
      } else if (gone_.erase(event.request) != 0) {
        // Already rejected or shed: the trace's departure is a no-op, and
        // the request stays in its rejected/shed accounting bucket.
      } else {
        event_fail(event, "departure of an unknown request");
      }
      drain_then_settle(touched, outcome);
      break;
    }
    case workload::StreamEventKind::kRateChange: {
      ++totals_.rate_changes;
      outcome.decision = Decision::kRateChanged;
      if (event.rate <= 0.0) event_fail(event, "invalid rate");
      if (const auto qit = queued_pos(); qit != queue_.end()) {
        qit->rate = event.rate;
        break;
      }
      if (const auto rit = retry_pos(); rit != retry_queue_.end()) {
        rit->request.rate = event.rate;
        break;
      }
      if (gone_.count(event.request) != 0) break;  // rejected/shed: no-op
      const auto it = live_.find(event.request);
      if (it == live_.end()) {
        event_fail(event, "rate change of an unknown request");
      }
      LiveRequest& r = it->second;
      const double delta_raw = event.rate - r.rate;
      const double delta_eff = delta_raw / r.prob;
      for (const std::uint32_t slot : r.hop_instance) {
        instances_[slot].raw_load += delta_raw;
        instances_[slot].effective_load += delta_eff;
      }
      r.rate = event.rate;
      rebalance_chain(r.chain, outcome);
      // Enforce stability hop by hop: relocate this request off any
      // over-limit instance; if nothing admits it and the instance is
      // truly unstable (ρ ≥ 1), shed the whole request.
      bool shed = false;
      for (std::size_t h = 0; h < r.chain.size() && !shed; ++h) {
        const std::uint32_t f = r.chain[h];
        const Instance& inst = instances_[r.hop_instance[h]];
        if (inst.effective_load <= limit(f)) continue;
        if (move_hop(event.request, h, /*may_open=*/true, outcome)) continue;
        if (inst.effective_load >= vnfs_[f].service_rate) shed = true;
      }
      if (shed) {
        remove_live(event.request, outcome);
        gone_.insert(event.request);
        outcome.decision = Decision::kShed;
        ++totals_.shed;
        if (lifecycle_on()) {
          record_lifecycle(outcome, obs::LifecycleStage::kShed,
                           event.request);
        }
        touched_scratch_.clear();
        drain_then_settle(touched_scratch_, outcome);
      }
      break;
    }
    case workload::StreamEventKind::kNodeDown:
      handle_node_down(event, outcome);
      break;
    case workload::StreamEventKind::kNodeUp:
      handle_node_up(event, outcome);
      break;
  }

  // Backoff-gated retry of fault-evacuated requests, then the degradation
  // ladder — both keyed on the event index, so replay position (not wall
  // time) drives every decision.
  touched_scratch_.clear();
  drain_retry_queue(outcome, touched_scratch_);
  settle(touched_scratch_, outcome);
  update_degradation(outcome);
  if (autoscale_on()) run_autoscale(event.time, outcome);

  finish_outcome(outcome);
}

std::vector<EventOutcome> ServeEngine::replay(
    const workload::EventTrace& trace) {
  NFV_REQUIRE(trace.vnf_count <= vnfs_.size());
  std::vector<EventOutcome> outcomes;
  outcomes.reserve(trace.events.size());
  for (const workload::StreamEvent& event : trace.events) {
    outcomes.push_back(on_event(event));
  }
  return outcomes;
}

void ServeEngine::apply_batch(const workload::StreamEvent* events,
                              std::size_t count) {
  // Grow geometrically, like push_back: reserving exactly size + count
  // would reallocate and copy the whole log on every batch.
  if (log_.capacity() - log_.size() < count) {
    log_.reserve(std::max(log_.size() + count, 2 * log_.capacity()));
  }
  for (std::size_t i = 0; i < count; ++i) process_event(events[i]);
}

std::uint64_t ServeEngine::replay(workload::TraceReader& reader,
                                  std::uint64_t limit) {
  NFV_REQUIRE(reader.vnf_count() <= vnfs_.size());
  // Read in place: decoded_.chain keeps its capacity across events, so a
  // warm loop reads and applies without touching the heap.  Each event is
  // applied before the next is read, so a corrupt or invalid event leaves
  // every event ahead of it applied.
  std::uint64_t applied = 0;
  while (applied < limit && reader.next(decoded_)) {
    process_event(decoded_);
    ++applied;
  }
  return applied;
}

ServeSummary ServeEngine::summary() const {
  ServeSummary s = totals_;
  s.live_requests = live_.size();
  s.queued_requests = queue_.size();
  s.retry_queued = retry_queue_.size();
  s.availability = offered_integral_ > 0.0
                       ? served_integral_ / offered_integral_
                       : 1.0;
  std::uint64_t active = 0;
  for (const auto& act : active_of_vnf_) active += act.size();
  s.active_instances = active;
  s.nodes_in_service = static_cast<std::uint64_t>(
      std::count_if(node_instances_.begin(), node_instances_.end(),
                    [](std::uint32_t n) { return n > 0; }));
  s.admission_rate =
      s.arrivals > 0
          ? static_cast<double>(s.admitted + s.admitted_from_queue) /
                static_cast<double>(s.arrivals)
          : 1.0;
  std::vector<double> lat_buffer;
  eval_latencies(lat_buffer);
  const LatencyStats lat = latency_stats(lat_buffer);
  s.mean_predicted_latency = lat.mean;
  s.p99_predicted_latency = lat.p99;
  s.work = work_;
  if (autoscale_on()) {
    const AutoscaleTotals& at = scaler_->totals();
    s.autoscale_decisions = at.decisions;
    s.autoscale_flaps = at.flaps;
    s.autoscale_blocked_cooldown = at.blocked_cooldown;
    s.autoscale_scale_outs = as_opened_;
    s.autoscale_scale_ins = as_drained_;
    s.instance_seconds = instance_seconds_;
    s.draining_instances = draining_count();
  }
  return s;
}

ServeEngine::Snapshot ServeEngine::snapshot() const {
  Snapshot snap;
  for (const Instance& inst : instances_) {
    if (inst.retired) continue;
    snap.instances.push_back({inst.vnf, inst.node, inst.seq, inst.raw_load,
                              inst.effective_load, inst.members});
  }
  snap.queued.reserve(queue_.size());
  for (const PendingRequest& p : queue_) snap.queued.push_back(p.id);
  snap.live.reserve(live_.size());
  for (const auto& [id, r] : live_) snap.live.push_back(id);
  snap.retrying.reserve(retry_queue_.size());
  for (const RetryRequest& p : retry_queue_) {
    snap.retrying.push_back(p.request.id);
  }
  for (std::uint32_t v = 0; v < node_up_.size(); ++v) {
    if (node_up_[v] == 0) snap.nodes_down.push_back(v);
  }
  snap.degraded = degraded_;
  return snap;
}

std::vector<double> ServeEngine::predicted_latencies() const {
  std::vector<double> out;
  eval_latencies(out);
  return out;
}

void ServeEngine::eval_latencies(std::vector<double>& out) const {
  out.clear();
  out.reserve(live_.size());
  for (const auto& [id, r] : live_) {
    double total = 0.0;
    std::size_t nodes = 0;  // distinct nodes along the chain
    for (std::size_t h = 0; h < r.hop_instance.size(); ++h) {
      const Instance& inst = instances_[r.hop_instance[h]];
      const double mu = vnfs_[r.chain[h]].service_rate;
      if (inst.raw_load > 0.0) {
        // Eq. 11/12: W = (ρ/(1−ρ)) / Σλ_raw with ρ = Λ_k/μ; clamp the
        // slack so a briefly over-limit instance reports a huge-but-finite
        // latency instead of a sign flip.
        const double slack = std::max(mu - inst.effective_load, 1e-9 * mu);
        total += inst.effective_load / (slack * inst.raw_load);
      } else {
        total += 1.0 / mu;
      }
      // A node counts at its first hop only.  Chains are a few hops long,
      // so scanning the earlier hops is cheaper than sorting a copy.
      std::size_t j = 0;
      while (j < h && instances_[r.hop_instance[j]].node != inst.node) ++j;
      if (j == h) ++nodes;
    }
    if (nodes > 0) {
      total += static_cast<double>(nodes - 1) * link_latency_;
    }
    out.push_back(total);
  }
}

workload::Workload ServeEngine::live_workload() const {
  workload::Workload w;
  std::vector<std::uint32_t> used(vnfs_.size(), 0);
  for (const auto& [id, r] : live_) {
    for (const std::uint32_t f : r.chain) used[f] = 1;
  }
  std::vector<std::uint32_t> dense(vnfs_.size(), 0);
  for (std::uint32_t f = 0; f < vnfs_.size(); ++f) {
    if (used[f] == 0) continue;
    dense[f] = static_cast<std::uint32_t>(w.vnfs.size());
    workload::Vnf vnf = vnfs_[f];
    vnf.id = VnfId(static_cast<std::uint32_t>(w.vnfs.size()));
    vnf.instance_count =
        std::max<std::uint32_t>(
            1, static_cast<std::uint32_t>(active_of_vnf_[f].size()));
    w.vnfs.push_back(std::move(vnf));
  }
  for (const auto& [id, r] : live_) {
    workload::Request req;
    req.id = RequestId(static_cast<std::uint32_t>(w.requests.size()));
    req.arrival_rate = r.rate;
    req.delivery_prob = r.prob;
    req.chain.reserve(r.chain.size());
    for (const std::uint32_t f : r.chain) req.chain.push_back(VnfId(dense[f]));
    w.requests.push_back(std::move(req));
  }
  return w;
}

obs::SectionWriter report_section(const ServeEngine& engine,
                                  bool include_events) {
  return [&engine, include_events](obs::JsonWriter& w) {
    const ServeSummary s = engine.summary();
    const ServeConfig& config = engine.config();
    Writer v(w, /*enum_names=*/true);
    counter_fields(s, v);
    v("live_requests", s.live_requests);
    v("queued_requests", s.queued_requests);
    v("retry_queued", s.retry_queued);
    v("active_instances", s.active_instances);
    v("nodes_in_service", s.nodes_in_service);
    // Fault-tolerance counters nest under "churn" so they diff and print
    // as one group rather than a flat sprawl of serve.* paths.
    v.object("churn", [&](auto& c) { churn_fields(s, c); });
    // Autoscaler counters nest like churn, written only when the run
    // scaled so autoscale-off reports are unchanged.
    v.object("autoscale", [&](auto& a) {
      a("policy", config.autoscale.policy);
      a("decisions", s.autoscale_decisions);
      a("scale_outs", s.autoscale_scale_outs);
      a("scale_ins", s.autoscale_scale_ins);
      a("flaps", s.autoscale_flaps);
      a("blocked_cooldown", s.autoscale_blocked_cooldown);
      a("draining", s.draining_instances);
      a("instance_seconds", s.instance_seconds);
    }, config.autoscale.enabled());
    v("availability", s.availability);
    v("admission_rate", s.admission_rate);
    v("mean_predicted_latency", s.mean_predicted_latency);
    v("p99_predicted_latency", s.p99_predicted_latency);
    v("work", s.work);
    // The aggregate_values vocabulary doubles as the schema here, so the
    // report keys stay in lock-step with `analyze-timeline --fail-on`.
    v.object("timeline", [&](auto& t) {
      const obs::TimelineAggregates agg =
          obs::aggregate_timeline(engine.timeline_doc().records);
      for (const auto& [name, value] : obs::aggregate_values(agg)) {
        t(name, value);
      }
    }, config.snapshot_every > 0.0);
    v.objects("events_log", engine.log(), Fields{},
              include_events && !engine.log().empty());
  };
}

void write_flight_dump(const ServeEngine& engine, std::size_t capacity,
                       std::ostream& os) {
  const std::span<const EventOutcome> log = engine.log();
  obs::JsonWriter w(os);
  w.begin_object();
  w.kv("schema", kFlightSchema);
  w.kv("capacity", static_cast<std::uint64_t>(capacity));
  w.kv("recorded", static_cast<std::uint64_t>(log.size()));
  Writer(w, /*enum_names=*/true)
      .objects("entries", log.last(std::min(capacity, log.size())));
  w.end_object();
}

}  // namespace nfv::serve
