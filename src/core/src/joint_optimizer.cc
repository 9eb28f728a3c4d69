#include "nfv/core/joint_optimizer.h"

#include <algorithm>

#include "nfv/common/error.h"
#include "nfv/exec/thread_pool.h"
#include "nfv/obs/metrics.h"
#include "nfv/obs/trace.h"

namespace nfv::core {

void SystemModel::validate() const {
  NFV_REQUIRE(topology.frozen());
  NFV_REQUIRE(!workload.vnfs.empty());
  NFV_REQUIRE(!workload.requests.empty());
  for (std::size_t i = 0; i < workload.vnfs.size(); ++i) {
    NFV_REQUIRE(workload.vnfs[i].id.index() == i);  // dense ids
  }
  for (const auto& r : workload.requests) {
    NFV_REQUIRE(!r.chain.empty());
    for (const VnfId f : r.chain) {
      NFV_REQUIRE(f.index() < workload.vnfs.size());
    }
  }
}

std::vector<VnfSchedulingContext> make_scheduling_contexts(
    const workload::Workload& workload) {
  std::vector<VnfSchedulingContext> contexts(workload.vnfs.size());
  for (std::size_t f = 0; f < workload.vnfs.size(); ++f) {
    const workload::Vnf& vnf = workload.vnfs[f];
    contexts[f].problem.instance_count = vnf.instance_count;
    contexts[f].problem.service_rate = vnf.service_rate;
  }
  // One sweep over every chain — O(Σ|chain|) — instead of the |F|·|R|
  // membership scan of re-testing uses() per (VNF, request) pair.  The
  // stamp dedupes repeated VNFs inside one chain so each request joins a
  // VNF's member list once, in request order, exactly as before.
  constexpr std::uint32_t kNoRequest = 0xffffffffu;
  std::vector<std::uint32_t> seen_in(workload.vnfs.size(), kNoRequest);
  for (std::uint32_t r_idx = 0; r_idx < workload.requests.size(); ++r_idx) {
    const workload::Request& r = workload.requests[r_idx];
    for (const VnfId f : r.chain) {
      if (seen_in[f.index()] == r_idx) continue;
      seen_in[f.index()] = r_idx;
      VnfSchedulingContext& ctx = contexts[f.index()];
      if (ctx.members.empty()) {
        ctx.problem.delivery_prob = r.delivery_prob;
      } else {
        NFV_REQUIRE(r.delivery_prob == ctx.problem.delivery_prob);
      }
      ctx.problem.arrival_rates.push_back(r.arrival_rate);
      ctx.members.push_back(r.id);
    }
  }
  for (auto& ctx : contexts) ctx.problem.validate();
  return contexts;
}

ChainPositionIndex make_chain_position_index(
    const workload::Workload& workload,
    const std::vector<VnfSchedulingContext>& contexts) {
  ChainPositionIndex index;
  index.offsets.resize(workload.requests.size() + 1, 0);
  for (std::size_t r = 0; r < workload.requests.size(); ++r) {
    index.offsets[r + 1] = index.offsets[r] + workload.requests[r].chain.size();
  }
  index.position.resize(index.offsets.back());
  // Member lists were appended in request order, so walking the requests
  // in the same order means "the next unconsumed member of VNF f is this
  // request"; cursor[f] tracks that.  Repeated VNFs in one chain reuse
  // the position claimed at their first occurrence (stamp + last_pos).
  constexpr std::uint32_t kNoRequest = 0xffffffffu;
  std::vector<std::uint32_t> cursor(contexts.size(), 0);
  std::vector<std::uint32_t> seen_in(contexts.size(), kNoRequest);
  std::vector<std::uint32_t> first_pos(contexts.size(), 0);
  for (std::uint32_t r_idx = 0; r_idx < workload.requests.size(); ++r_idx) {
    const auto& chain = workload.requests[r_idx].chain;
    for (std::size_t j = 0; j < chain.size(); ++j) {
      const std::size_t f = chain[j].index();
      if (seen_in[f] != r_idx) {
        seen_in[f] = r_idx;
        first_pos[f] = cursor[f]++;
      }
      index.position[index.offsets[r_idx] + j] = first_pos[f];
    }
  }
  return index;
}

void JointResult::adopt(ScheduleResult&& phase) {
  contexts = std::move(phase.contexts);
  schedules = std::move(phase.schedules);
  admissions = std::move(phase.admissions);
}

SchedulePass::SchedulePass(const PreparedModel& in, const JointConfig& config,
                           const sched::SchedulingAlgorithm& scheduler,
                           std::uint64_t seed)
    : config_(config), scheduler_(scheduler) {
  try {
    out_.contexts = make_scheduling_contexts(in.model.workload);
  } catch (...) {
    setup_error_ = std::current_exception();
    return;
  }
  // Phase 2's own stream, forked off the seed: phase 1 draws from
  // Rng(seed), and how much it draws must never reach phase 2.  Fork the
  // per-VNF children first, in index order, so every child stream is the
  // same whichever thread runs its item.
  Rng rng = Rng(seed).fork(0);
  items_ = out_.contexts.size();
  children_.reserve(items_);
  for (std::size_t f = 0; f < items_; ++f) {
    children_.push_back(rng.fork(f));
  }
  out_.schedules.resize(items_);
  out_.admissions.resize(items_);
  item_errors_.resize(items_);
}

void SchedulePass::run_item(std::size_t i) noexcept {
  try {
    const VnfSchedulingContext& ctx = out_.contexts[i];
    out_.schedules[i] = scheduler_.schedule(ctx.problem, children_[i]);
    out_.admissions[i] = sched::apply_admission(
        ctx.problem, out_.schedules[i], config_.rho_max);
  } catch (...) {
    item_errors_[i] = std::current_exception();
  }
}

ScheduleResult SchedulePass::finish() && {
  if (setup_error_) std::rethrow_exception(setup_error_);
  for (const std::exception_ptr& e : item_errors_) {
    if (e) std::rethrow_exception(e);
  }
  return std::move(out_);
}

JointOptimizer::JointOptimizer(JointConfig config)
    : config_(std::move(config)),
      scheduler_(sched::make_scheduling_algorithm(config_.scheduling_algorithm)) {
  NFV_REQUIRE(scheduler_ != nullptr);
  NFV_REQUIRE(config_.rho_max > 0.0 && config_.rho_max <= 1.0);
  if (config_.link_latency) NFV_REQUIRE(*config_.link_latency >= 0.0);
  config_.exec.validate();
}

JointResult JointOptimizer::run(const SystemModel& model,
                                std::uint64_t seed) const {
  // Honor the configured thread count when no pool is installed yet; an
  // already-installed pool (CLI --threads, bench harness) wins so nested
  // runs share one fan-out width.
  const exec::LocalPool pool(config_.exec.threads);
  const obs::ScopedSpan run_span("core.joint.run");
  const PreparedModel in = prepare(model);
  const auto placer =
      placement::make_placement_algorithm(config_.placement_algorithm);
  NFV_REQUIRE(placer != nullptr);

  JointResult result;
  {
    const obs::ScopedSpan span("core.joint.placement");
    result = place(in, *placer, seed);
  }
  if (result.placement.feasible) {
    SchedulePass pass = schedule(in, seed);
    {
      const obs::ScopedSpan span("core.joint.scheduling");
      exec::parallel_for(pass.items(),
                         [&](std::size_t i) { pass.run_item(i); });
    }
    ScheduleResult phase = std::move(pass).finish();
    {
      const obs::ScopedSpan span("core.joint.evaluate");
      evaluate(model, phase_terms(model, phase), result);
    }
    result.adopt(std::move(phase));
  }
  count_run(result);
  return result;
}

PreparedModel JointOptimizer::prepare(const SystemModel& model) const {
  model.validate();
  return {model, placement::make_problem(model.topology, model.workload)};
}

JointResult JointOptimizer::place(const PreparedModel& in,
                                  const placement::PlacementAlgorithm& algo,
                                  std::uint64_t seed) const {
  JointResult result;
  Rng rng(seed);
  result.placement = algo.place(in.problem, rng);
  result.placement_metrics = placement::evaluate(in.problem, result.placement);
  return result;
}

SchedulePass JointOptimizer::schedule(const PreparedModel& in,
                                      std::uint64_t seed) const {
  return SchedulePass(in, config_, *scheduler_, seed);
}

PhaseTerms phase_terms(const SystemModel& model, const ScheduleResult& phase) {
  // Admitted iff admitted at every chain VNF; response sums the
  // post-admission W(f, k).
  const ChainPositionIndex positions =
      make_chain_position_index(model.workload, phase.contexts);

  PhaseTerms terms;
  terms.requests.resize(model.workload.requests.size());
  for (const auto& r : model.workload.requests) {
    RequestOutcome& out = terms.requests[r.id.index()];
    out.admitted = true;
    double response = 0.0;
    for (std::size_t j = 0; j < r.chain.size(); ++j) {
      const VnfId f = r.chain[j];
      const std::uint32_t pos = positions.at(r.id.index(), j);
      const auto& admission = phase.admissions[f.index()];
      if (!admission.admitted[pos]) {
        out.admitted = false;
        break;
      }
      const std::uint32_t k = phase.schedules[f.index()].instance_of[pos];
      const auto& m = admission.admitted_metrics;
      const double mu_eff = phase.contexts[f.index()].problem.delivery_prob *
                            phase.contexts[f.index()].problem.service_rate;
      const double load = m.instance_load[k];
      NFV_CHECK(load < mu_eff);  // admission guarantees stability
      response += 1.0 / (mu_eff - load);  // W(f, k), Eq. 12
    }
    if (out.admitted) out.response_latency = response;
  }

  // Mean W over all service instances (post-admission loads).
  const std::size_t vnf_count = model.workload.vnfs.size();
  double response_sum = 0.0;
  std::size_t instance_count = 0;
  for (std::size_t f = 0; f < vnf_count; ++f) {
    const auto& m = phase.admissions[f].admitted_metrics;
    const double mu_eff = phase.contexts[f].problem.delivery_prob *
                          phase.contexts[f].problem.service_rate;
    for (const double load : m.instance_load) {
      NFV_CHECK(load < mu_eff);
      response_sum += 1.0 / (mu_eff - load);
      ++instance_count;
    }
  }
  terms.avg_response =
      instance_count > 0
          ? response_sum / static_cast<double>(instance_count)
          : 0.0;
  return terms;
}

void JointOptimizer::evaluate(const SystemModel& model, const PhaseTerms& terms,
                              JointResult& result) const {
  // Link latency charges L per extra node an admitted chain traverses.
  const double link_l =
      config_.link_latency.value_or(model.topology.mean_link_latency());

  result.requests = terms.requests;
  std::size_t admitted_count = 0;
  double total = 0.0;
  // Distinct-node scratch reused across requests: chains are short, so a
  // sort+unique over a small vector beats a per-request std::set (one
  // node allocation per chain element) by a wide margin.
  std::vector<std::uint32_t> nodes_scratch;
  for (const auto& r : model.workload.requests) {
    RequestOutcome& out = result.requests[r.id.index()];
    if (!out.admitted) continue;
    nodes_scratch.clear();
    for (const VnfId f : r.chain) {
      nodes_scratch.push_back(
          result.placement.assignment[f.index()]->value());
    }
    std::sort(nodes_scratch.begin(), nodes_scratch.end());
    nodes_scratch.erase(
        std::unique(nodes_scratch.begin(), nodes_scratch.end()),
        nodes_scratch.end());
    out.nodes_traversed = static_cast<std::uint32_t>(nodes_scratch.size());
    out.link_latency =
        static_cast<double>(out.nodes_traversed - 1) * link_l;
    total += out.total_latency();
    ++admitted_count;
  }
  result.total_latency = total;
  result.avg_total_latency =
      admitted_count > 0 ? total / static_cast<double>(admitted_count) : 0.0;
  result.job_rejection_rate =
      1.0 - static_cast<double>(admitted_count) /
                static_cast<double>(model.workload.requests.size());
  result.avg_response = terms.avg_response;
  result.feasible = true;
}

void count_run(const JointResult& result) {
  obs::count("core.joint.runs");
  if (result.feasible) {
    const auto admitted = static_cast<std::uint64_t>(
        std::count_if(result.requests.begin(), result.requests.end(),
                      [](const RequestOutcome& r) { return r.admitted; }));
    obs::count("core.joint.admitted", admitted);
    obs::count("core.joint.rejected", result.requests.size() - admitted);
  }
}

}  // namespace nfv::core
