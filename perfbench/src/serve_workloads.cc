// crowd and churn: single-client, closed-loop replays of seeded event
// traces through nfv::serve::ServeEngine, the library path `nfvpr serve`
// takes.  A run holds kScenarios independently seeded scenarios, so one
// seed's draw of the traffic weighs a quarter of the result.  One run:
//
//  1. set-up of every scenario: generate its inputs, build its engine and
//     replay its warm-up prefix (repeated kSetups times in all, the later
//     ones spread over step 3's window; setup_s sums the medians);
//  2. a check pass per scenario over its measured segment: samples quality
//     figures at fixed event indices and runs every self-check, untimed;
//  3. timed passes, cycling through the scenarios, until --seconds have
//     elapsed: each copies a warm engine, then decodes and decides the
//     segment event by event, and must end in that scenario's check-pass
//     state.  The timings keep each event's and each chunk's fastest time
//     over the passes.
//
// A traced run adds spans and the per-layer measurements on top.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "inputs.h"
#include "nfv/common/rng.h"
#include "nfv/obs/metrics.h"
#include "nfv/scheduling/algorithm.h"
#include "nfv/scheduling/migration.h"
#include "nfv/serve/checkpoint.h"
#include "nfv/serve/engine.h"
#include "nfv/workload/btrace.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using nfv::serve::ServeEngine;
using nfv::serve::ServeSummary;
using nfv::workload::StreamEvent;
using nfv::workload::StreamEventKind;

constexpr std::size_t kScenarios = 4;
constexpr std::size_t kSetups = 3;
/// Repetitions of the small A/B measurements of a traced run (ablation,
/// telemetry overhead, timeline_doc); each reports the median.
constexpr std::size_t kRepeats = 3;
constexpr std::size_t kSamplePoints = 64;
/// Events per timed chunk of a pass (the last chunk may be shorter).
constexpr std::uint64_t kChunkEvents = 100;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct ServeWorkload {
  const char* name = "";
  ServeShape shape;
  nfv::serve::ServeConfig config;
  bool metrics_registry = false;  ///< install obs::MetricsRegistry
  /// In-memory saves per pass, after segment events checkpoint_every,
  /// 2 * checkpoint_every, ...: early in the segment, so the checkpoint
  /// text (which carries the whole event log) stays a minority of a pass.
  std::size_t checkpoints = 0;
  std::uint64_t checkpoint_every = 0;
};

ServeWorkload crowd_workload() {
  ServeWorkload w;
  w.name = "crowd";
  w.shape.nodes = 16;
  w.shape.capacity = 5000.0;
  w.shape.vnfs = 12;
  w.shape.template_lengths = {2, 3, 4, 5, 6, 4, 3, 5, 2, 6, 4, 4};
  w.shape.stream.target_population = 400;
  w.shape.warmup_events = 1200;
  w.shape.segment_events = 500;
  return w;
}

ServeWorkload churn_workload() {
  ServeWorkload w;
  w.name = "churn";
  w.shape.nodes = 6;
  w.shape.capacity = 700.0;
  w.shape.vnfs = 8;
  w.shape.template_lengths = {2, 3, 4, 3, 2, 3, 4, 3};
  auto& s = w.shape.stream;
  s.target_population = 40;
  s.rate_sigma_log = 1.0;
  s.ramp_amplitude = 0.5;
  s.ramp_period = 8.0;
  s.burst_every = 5.0;
  s.burst_length = 1.0;
  s.burst_factor = 2.0;
  s.churn_node_count = 3;
  s.node_mtbf = 6.0;
  s.node_mttr = 0.5;
  w.shape.warmup_events = 500;
  w.shape.segment_events = 3000;
  w.config.autoscale.policy = nfv::serve::ScalePolicy::kReactive;
  w.config.snapshot_every = 1.0;
  w.config.lifecycle = true;
  w.metrics_registry = true;
  w.checkpoints = 2;
  w.checkpoint_every = 250;
  return w;
}

/// The benchmark's own book of every request's λ, P and chain, kept from
/// the trace alone so the engine's state can be checked against it.
struct BookEntry {
  double rate = 0.0;
  double prob = 1.0;
  std::vector<std::uint32_t> chain;
};
using Book = std::unordered_map<std::uint32_t, BookEntry>;

void apply_to_book(Book& book, const StreamEvent& ev) {
  switch (ev.kind) {
    case StreamEventKind::kArrive:
      book[ev.request] = {ev.rate, ev.delivery_prob, ev.chain};
      break;
    case StreamEventKind::kDepart:
      book.erase(ev.request);
      break;
    case StreamEventKind::kRateChange:
      book.at(ev.request).rate = ev.rate;
      break;
    case StreamEventKind::kNodeDown:
    case StreamEventKind::kNodeUp:
      break;
  }
}

std::size_t kind_index(StreamEventKind kind) {
  switch (kind) {
    case StreamEventKind::kArrive: return 0;
    case StreamEventKind::kDepart: return 1;
    case StreamEventKind::kRateChange: return 2;
    case StreamEventKind::kNodeDown:
    case StreamEventKind::kNodeUp: return 3;
  }
  return 3;
}

const char* kind_span(StreamEventKind kind) {
  switch (kind) {
    case StreamEventKind::kArrive: return "serve.arrive";
    case StreamEventKind::kDepart: return "serve.depart";
    case StreamEventKind::kRateChange: return "serve.rate_change";
    case StreamEventKind::kNodeDown:
    case StreamEventKind::kNodeUp: return "serve.node_event";
  }
  return "serve.node_event";
}

std::uint64_t refused(const ServeSummary& s) {
  return s.rejected + s.shed + s.shed_fault + s.shed_overload;
}

/// arrivals == live + queued + retrying + rejected + departed + shed*.
std::optional<std::string> accounting_violation(const ServeSummary& s) {
  const std::uint64_t accounted = s.live_requests + s.queued_requests +
                                  s.retry_queued + s.departures + refused(s);
  if (accounted == s.arrivals) return std::nullopt;
  return "request accounting identity broken: arrivals " +
         std::to_string(s.arrivals) + " != accounted " +
         std::to_string(accounted);
}

double link_latency(const ServeEngine& engine) {
  return engine.config().link_latency.value_or(
      engine.topology().mean_link_latency());
}

/// Eq. 16 per live request recomputed from snapshot() and the book; the
/// largest relative difference to predicted_latencies().
double eq16_error(const ServeEngine::Snapshot& snap,
                  const std::vector<double>& predicted, const Book& book,
                  const std::vector<nfv::workload::Vnf>& vnfs, double link) {
  if (predicted.size() != snap.live.size()) return 1.0;
  std::unordered_map<std::uint64_t, std::size_t> instance_of;
  for (std::size_t i = 0; i < snap.instances.size(); ++i) {
    const auto& inst = snap.instances[i];
    for (const std::uint32_t id : inst.requests) {
      instance_of[(std::uint64_t{inst.vnf} << 32) | id] = i;
    }
  }
  double worst = 0.0;
  std::vector<std::uint32_t> nodes;
  for (std::size_t r = 0; r < snap.live.size(); ++r) {
    const auto entry = book.find(snap.live[r]);
    if (entry == book.end()) return 1.0;
    double total = 0.0;
    nodes.clear();
    for (const std::uint32_t f : entry->second.chain) {
      const auto it = instance_of.find((std::uint64_t{f} << 32) | snap.live[r]);
      if (it == instance_of.end()) return 1.0;
      const auto& inst = snap.instances[it->second];
      const double mu = vnfs[f].service_rate;
      if (inst.raw_load > 0.0) {
        const double slack = std::max(mu - inst.effective_load, 1e-9 * mu);
        total += inst.effective_load / (slack * inst.raw_load);
      } else {
        total += 1.0 / mu;
      }
      nodes.push_back(inst.node);
    }
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    if (!nodes.empty()) {
      total += static_cast<double>(nodes.size() - 1) * link;
    }
    worst = std::max(worst, std::abs(total - predicted[r]) /
                                std::max(std::abs(predicted[r]), 1e-300));
  }
  return worst;
}

/// max |raw_load − Σ member λ| over active instances.
double load_drift(const ServeEngine::Snapshot& snap, const Book& book) {
  double worst = 0.0;
  for (const auto& inst : snap.instances) {
    double sum = 0.0;
    for (const std::uint32_t id : inst.requests) {
      const auto it = book.find(id);
      if (it != book.end()) sum += it->second.rate;
    }
    worst = std::max(worst, std::abs(inst.raw_load - sum));
  }
  return worst;
}

/// Times one RCKK re-solve + bounded-migration plan per VNF with at least
/// two instances, on the live problem rebuilt from a snapshot — the work
/// ServeEngine::rebalance does when a VNF crosses its imbalance threshold.
void time_rckk(const ServeEngine::Snapshot& snap, const Book& book,
               const std::vector<nfv::workload::Vnf>& vnfs,
               const nfv::serve::ServeConfig& config, SpanRecorder* spans,
               std::vector<double>& us, std::vector<double>& members) {
  for (std::uint32_t f = 0; f < vnfs.size(); ++f) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> ids;  // id, pos
    std::uint32_t m = 0;
    for (const auto& inst : snap.instances) {
      if (inst.vnf != f) continue;
      for (const std::uint32_t id : inst.requests) ids.emplace_back(id, m);
      ++m;
    }
    if (m < 2 || ids.empty()) continue;
    std::sort(ids.begin(), ids.end());
    nfv::sched::SchedulingProblem problem;
    problem.service_rate = vnfs[f].service_rate;
    problem.instance_count = m;
    std::vector<std::uint32_t> current;
    for (const auto& [id, pos] : ids) {
      const BookEntry& e = book.at(id);
      problem.arrival_rates.push_back(e.rate);
      problem.delivery_probs.push_back(e.prob);
      current.push_back(pos);
    }
    const double limit = (1.0 - config.headroom) * vnfs[f].service_rate;
    const auto start = Clock::now();
    {
      ScopedSpan span(spans, "scheduling.rckk_resolve", "scheduling");
      nfv::Rng rng(1);
      const auto target = nfv::sched::RckkScheduling{}.schedule(problem, rng);
      const auto plan = nfv::sched::plan_bounded_migration(
          problem, current, target, config.migration_budget, limit);
      if (plan.moves.size() > config.migration_budget) {
        throw std::logic_error("migration plan over budget");
      }
    }
    us.push_back(seconds_between(start, Clock::now()) * 1e6);
    members.push_back(static_cast<double>(ids.size()));
  }
}

/// Segment index after which the k-th in-memory checkpoint is saved.
std::uint64_t checkpoint_index(std::size_t k, const ServeWorkload& wl) {
  return (k + 1) * wl.checkpoint_every - 1;
}

struct PassTiming {
  double wall_s = 0.0;
  std::vector<double> chunk_s;  ///< wall time of each kChunkEvents events
  ServeEngine::Snapshot end_state;
};

/// One closed-loop pass over the segment from a copy of the warm engine:
/// decode, decide, and the workload's in-memory checkpoints, all inside the
/// timed loop.  Appends per-event decide times and kinds.
PassTiming timed_pass(const ServeEngine& warm, const ServeInputs& in,
                      const ServeWorkload& wl, SpanRecorder* spans,
                      std::vector<double>& decide_us,
                      std::vector<std::uint8_t>& kinds) {
  ServeEngine engine = warm;
  nfv::workload::BinaryTraceDecoder decoder(in.segment);
  StreamEvent ev;
  const std::uint64_t n = in.segment_events;
  const std::uint64_t base = in.warmup.events.size();
  std::size_t next_ck = 0;
  PassTiming out;
  const auto start = Clock::now();
  auto chunk_start = start;
  {
    ScopedSpan pass_span(spans, "bench.pass", "bench");
    for (std::uint64_t i = 0; i < n; ++i) {
      bool ok = false;
      {
        ScopedSpan span(spans, "workload.decode", "workload");
        ok = decoder.next(ev);
      }
      if (!ok) throw std::runtime_error("segment ended early");
      const auto t0 = Clock::now();
      {
        ScopedSpan span(spans, kind_span(ev.kind), "serve");
        (void)engine.on_event(ev);
      }
      decide_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      kinds.push_back(static_cast<std::uint8_t>(kind_index(ev.kind)));
      if (next_ck < wl.checkpoints &&
          i == checkpoint_index(next_ck, wl)) {
        ScopedSpan span(spans, "serve.checkpoint_save", "serve");
        (void)nfv::serve::save_checkpoint_string(engine, base + i + 1);
        ++next_ck;
      }
      if ((i + 1) % kChunkEvents == 0 || i + 1 == n) {
        const auto now = Clock::now();
        out.chunk_s.push_back(seconds_between(chunk_start, now));
        chunk_start = now;
      }
    }
  }
  out.wall_s = seconds_between(start, Clock::now());
  out.end_state = engine.snapshot();
  return out;
}

/// Lowers each element of `best` to the matching one of the `n` new
/// `samples`; an empty `best` takes the samples as they are.
void keep_fastest(std::vector<double>& best, const double* samples,
                  std::size_t n) {
  if (best.empty()) best.assign(samples, samples + n);
  if (best.size() != n) throw std::logic_error("pass length changed");
  for (std::size_t i = 0; i < n; ++i) best[i] = std::min(best[i], samples[i]);
}

/// Wall time of replaying the first `count` segment events on a copy of
/// `warm` (the copy is not timed).
double replay_prefix_s(const ServeEngine& warm, const ServeInputs& in,
                       std::uint64_t count) {
  ServeEngine engine = warm;
  nfv::workload::BinaryTraceDecoder decoder(in.segment);
  StreamEvent ev;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < count && decoder.next(ev); ++i) {
    (void)engine.on_event(ev);
  }
  return seconds_between(start, Clock::now());
}

/// Builds an engine under `config` and replays the warm-up prefix into it.
ServeEngine warm_engine(const ServeInputs& in,
                        const nfv::serve::ServeConfig& config) {
  ServeEngine engine(in.topology, in.base.vnfs, config);
  engine.apply_batch(in.warmup.events.data(), in.warmup.events.size());
  return engine;
}

/// Median wall time of alternating prefix replays on two warm engines;
/// returns {median A, median B}.  `registry_a/b` is installed around the
/// respective replays (nullptr: none).
std::pair<double, double> ab_prefix(const ServeEngine& a,
                                    nfv::obs::MetricsRegistry* registry_a,
                                    const ServeEngine& b,
                                    nfv::obs::MetricsRegistry* registry_b,
                                    const ServeInputs& in,
                                    std::uint64_t count) {
  std::vector<double> ta, tb;
  for (std::size_t k = 0; k < kRepeats; ++k) {
    nfv::obs::MetricsRegistry* prev = nfv::obs::set_registry(registry_a);
    ta.push_back(replay_prefix_s(a, in, count));
    nfv::obs::set_registry(registry_b);
    tb.push_back(replay_prefix_s(b, in, count));
    nfv::obs::set_registry(prev);
  }
  return {median(ta), median(tb)};
}

/// One independently seeded scenario of a run: its inputs, the warm
/// engine and the benchmark's book after the warm-up, and the state the
/// check pass ends in.
struct Scenario {
  ServeInputs in;
  std::optional<ServeEngine> warm;
  Book book;
  ServeEngine::Snapshot expected;
};

/// What the check passes accumulate over all scenarios of a run.
struct CheckTotals {
  std::vector<double> lat_ms, nodes_used, instances, live, predict_us;
  std::vector<double> rckk_us, rckk_members;
  std::vector<double> availability, log_bytes, save_ms, restore_ms;
  std::vector<double> checkpoint_first, checkpoint_last, instance_seconds;
  double drift = 0.0;
  double eq16_worst = 0.0;
  double events = 0.0;
  // Segment deltas of ServeSummary counters, summed over scenarios.
  double arrivals = 0.0, refused = 0.0, rebalances = 0.0, migrations = 0.0;
  double work = 0.0, evacuated = 0.0, parked = 0.0, shed_fault = 0.0;
  double as_decisions = 0.0, as_outs = 0.0, as_ins = 0.0, as_flaps = 0.0;
  double lifecycle = 0.0;
  std::uint64_t attempted = 0;
};

/// Replays a scenario's segment once, untimed: samples the quality figures
/// at kSamplePoints fixed event indices and runs the self-checks.
void check_pass(Scenario& sc, const ServeWorkload& wl, bool traced,
                SpanRecorder* spans, CheckTotals& t,
                const std::function<void(const std::string&)>& fail) {
  ScopedSpan span(spans, "bench.check_pass", "bench");
  const ServeInputs& in = sc.in;
  const std::uint64_t n = in.segment_events;
  const std::uint64_t base = in.warmup.events.size();
  const ServeSummary before = sc.warm->summary();
  const std::size_t lifecycle_before = sc.warm->lifecycle_log().size();
  const std::size_t sample_every = std::max<std::size_t>(1, n / kSamplePoints);
  ServeEngine check = *sc.warm;
  Book book = sc.book;
  nfv::workload::BinaryTraceDecoder decoder(in.segment);
  StreamEvent ev;
  std::string last_checkpoint;  // only the last is kept: RSS is measured
  std::uint64_t last_ck_cursor = 0;
  std::size_t next_ck = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!decoder.next(ev)) {
      fail("segment ended early");
      return;
    }
    apply_to_book(book, ev);
    {
      ScopedSpan es(spans, kind_span(ev.kind), "serve");
      (void)check.on_event(ev);
    }
    if (next_ck < wl.checkpoints &&
        i == checkpoint_index(next_ck, wl)) {
      ScopedSpan cs(spans, "serve.checkpoint_save", "serve");
      last_ck_cursor = base + i + 1;
      const auto t0 = Clock::now();
      last_checkpoint = nfv::serve::save_checkpoint_string(check, last_ck_cursor);
      t.save_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      const auto bytes = static_cast<double>(last_checkpoint.size());
      if (next_ck == 0) t.checkpoint_first.push_back(bytes);
      if (next_ck + 1 == wl.checkpoints) t.checkpoint_last.push_back(bytes);
      ++next_ck;
    }
    if ((i + 1) % sample_every != 0) continue;
    std::vector<double> lat;
    {
      // The whole Eq. 16 step ServeEngine::finish_outcome takes on every
      // event: predicted_latencies(), their mean, and the p99 of a sorted
      // copy.
      const auto t0 = Clock::now();
      ScopedSpan ps(spans, "serve.predict", "serve");
      lat = check.predicted_latencies();
      std::vector<double> sorted = lat;
      std::sort(sorted.begin(), sorted.end());
      if (!sorted.empty()) {
        const auto idx = static_cast<std::size_t>(std::ceil(
                             0.99 * static_cast<double>(sorted.size()))) - 1;
        volatile double sink = mean(lat) + sorted[idx];
        (void)sink;
      }
      t.predict_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    }
    ServeEngine::Snapshot snap;
    ServeSummary s;
    {
      ScopedSpan ss(spans, "serve.snapshot", "serve");
      snap = check.snapshot();
      s = check.summary();
    }
    t.eq16_worst = std::max(
        t.eq16_worst,
        eq16_error(snap, lat, book, in.base.vnfs, link_latency(check)));
    t.drift = std::max(t.drift, load_drift(snap, book));
    if (const auto bad = accounting_violation(s)) fail(*bad);
    t.lat_ms.push_back(lat.empty() ? 0.0 : mean(lat) * 1e3);
    t.nodes_used.push_back(static_cast<double>(s.nodes_in_service));
    t.instances.push_back(static_cast<double>(s.active_instances));
    t.live.push_back(static_cast<double>(snap.live.size()));
    if (traced) {
      time_rckk(snap, book, in.base.vnfs, wl.config, spans, t.rckk_us,
                t.rckk_members);
    }
  }
  const ServeSummary after = check.summary();
  if (const auto bad = accounting_violation(after)) fail(*bad);
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  t.events += static_cast<double>(n);
  t.arrivals += delta(before.arrivals, after.arrivals);
  t.refused += delta(refused(before), refused(after));
  t.rebalances += delta(before.rebalances, after.rebalances);
  t.migrations += delta(before.migrations, after.migrations);
  t.work += delta(before.work, after.work);
  t.evacuated += delta(before.evacuated_requests, after.evacuated_requests);
  t.parked += delta(before.parked, after.parked);
  t.shed_fault += delta(before.shed_fault, after.shed_fault);
  t.as_decisions += delta(before.autoscale_decisions, after.autoscale_decisions);
  t.as_outs += delta(before.autoscale_scale_outs, after.autoscale_scale_outs);
  t.as_ins += delta(before.autoscale_scale_ins, after.autoscale_scale_ins);
  t.as_flaps += delta(before.autoscale_flaps, after.autoscale_flaps);
  t.lifecycle += static_cast<double>(check.lifecycle_log().size() -
                                     lifecycle_before);
  t.availability.push_back(after.availability);
  t.instance_seconds.push_back(after.instance_seconds);
  t.log_bytes.push_back(static_cast<double>(
      check.log().capacity() * sizeof(nfv::serve::EventOutcome)));
  t.attempted += n;
  sc.expected = check.snapshot();

  // Restore the last in-memory checkpoint, replay the tail, and require
  // the uninterrupted engine's checkpoint bytes.
  if (next_ck == 0) return;
  const auto t0 = Clock::now();
  std::uint64_t cursor = 0;
  std::optional<ServeEngine> resumed;
  {
    ScopedSpan rs(spans, "serve.checkpoint_restore", "serve");
    resumed.emplace(nfv::serve::restore_checkpoint(
        last_checkpoint, in.topology, in.base.vnfs, &cursor));
  }
  t.restore_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
  last_checkpoint = std::string();
  if (cursor != last_ck_cursor) fail("checkpoint cursor mismatch");
  nfv::workload::BinaryTraceDecoder tail(in.segment);
  tail.skip(cursor - base);
  while (tail.next(ev)) {
    (void)resumed->on_event(ev);
    ++t.attempted;
  }
  const std::string want = nfv::serve::save_checkpoint_string(check, base + n);
  if (nfv::serve::save_checkpoint_string(*resumed, base + n) != want) {
    fail("restored checkpoint + tail replay differs from the uninterrupted "
         "engine");
  }
}

RunResult run_serve(const ServeWorkload& wl, const RunOptions& opt) {
  RunResult out;
  SpanRecorder* spans = opt.traced ? &out.spans : nullptr;
  Report& rep = out.report;
  const std::function<void(const std::string&)> fail =
      [&](const std::string& what) {
        out.failures.push_back(std::string(wl.name) + ": " + what);
      };

  nfv::obs::MetricsRegistry registry;
  nfv::obs::MetricsRegistry* workload_registry =
      wl.metrics_registry ? &registry : nullptr;
  nfv::obs::MetricsRegistry* prev_registry =
      nfv::obs::set_registry(workload_registry);

  const auto run_start = Clock::now();

  // --- 1. set-up ---------------------------------------------------------
  // Each scenario is set up kSetups times: once here, the rest spread over
  // the timed window, so a change in the host's speed moves some samples,
  // not all.  setup_s sums each scenario's median set-up time.
  std::vector<Scenario> scenarios(kScenarios);
  std::vector<std::uint64_t> sub_seeds;
  nfv::Rng seeder(opt.seed);
  for (std::size_t k = 0; k < kScenarios; ++k) sub_seeds.push_back(seeder.next());
  std::vector<std::vector<double>> setup_s(kScenarios), generate_s(kScenarios);
  const auto set_up = [&](std::size_t k) {
    Scenario fresh;
    const auto t0 = Clock::now();
    {
      ScopedSpan span(spans, "workload.generate", "workload");
      fresh.in = make_serve_inputs(wl.shape, sub_seeds[k]);
    }
    const auto t1 = Clock::now();
    {
      ScopedSpan span(spans, "serve.warmup", "serve");
      fresh.warm.emplace(warm_engine(fresh.in, wl.config));
    }
    const auto t2 = Clock::now();
    generate_s[k].push_back(seconds_between(t0, t1));
    setup_s[k].push_back(seconds_between(t0, t2));
    return fresh;
  };
  std::uint64_t digest = fnv1a(wl.name);
  for (std::size_t k = 0; k < kScenarios; ++k) {
    Scenario& sc = scenarios[k];
    sc = set_up(k);
    for (const StreamEvent& ev : sc.in.warmup.events) apply_to_book(sc.book, ev);
    digest = fnv1a(std::string_view(reinterpret_cast<const char*>(&sc.in.digest),
                                    sizeof sc.in.digest),
                   digest);
  }
  // The later set-ups, round robin over the scenarios; each must rebuild
  // the same inputs and the same warm engine.
  const std::size_t later_setups = kScenarios * (kSetups - 1);
  std::size_t setups_done = 0;
  const auto set_up_again = [&] {
    const std::size_t k = setups_done++ % kScenarios;
    const Scenario again = set_up(k);
    if (again.in.digest != scenarios[k].in.digest ||
        !(again.warm->snapshot() == scenarios[k].warm->snapshot())) {
      fail("scenario " + std::to_string(k) +
           " set up again differs from its first set-up");
    }
  };
  char digest_hex[24];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(digest));
  out.context.push_back(std::string("input digest: ") + digest_hex);
  out.context.push_back(
      std::to_string(kScenarios) + " scenarios; per scenario: warm-up events " +
      std::to_string(wl.shape.warmup_events) + ", measured segment events " +
      std::to_string(scenarios.front().in.segment_events));

  // --- 2. check passes -------------------------------------------------
  CheckTotals t;
  for (Scenario& sc : scenarios) check_pass(sc, wl, opt.traced, spans, t, fail);
  if (t.eq16_worst > 1e-9) {
    fail("Eq. 16 recomputed from snapshot() differs from "
         "predicted_latencies() by a relative " + std::to_string(t.eq16_worst));
  }
  std::uint64_t attempted = t.attempted;

  // --- 3. timed passes, cycling through the scenarios ------------------
  // Every untraced pass of a scenario does the same work on the same
  // state, so the end-to-end timings keep, per event and per chunk, the
  // fastest time any pass took: what the code costs when the machine does
  // not interfere.  Noise from the host only ever adds time.
  std::vector<double> decide_us, pass_eps, traced_eps;
  std::vector<std::uint8_t> kinds;
  std::vector<std::vector<double>> best_decide_us(kScenarios),
      best_chunk_s(kScenarios);
  double decide_in_traced_s = 0.0;
  double traced_wall_s = 0.0;
  const auto measure_start = Clock::now();
  double setups_in_window_s = 0.0;
  const auto window_s = [&] {
    return seconds_between(measure_start, Clock::now()) - setups_in_window_s;
  };
  for (std::size_t pass = 0;; ++pass) {
    if (setups_done < later_setups &&
        window_s() >= opt.seconds * static_cast<double>(setups_done + 1) /
                          static_cast<double>(later_setups + 1)) {
      const auto s0 = Clock::now();
      set_up_again();
      setups_in_window_s += seconds_between(s0, Clock::now());
    }
    // Stop on whole cycles, so every scenario weighs the same.
    const double elapsed = window_s();
    const bool cycle_done = pass_eps.size() % kScenarios == 0 &&
                            traced_eps.size() % kScenarios == 0;
    if (elapsed >= opt.seconds && cycle_done && !pass_eps.empty() &&
        (!opt.traced || !traced_eps.empty())) {
      break;
    }
    // A traced run alternates untraced and traced passes; the untraced
    // ones give the end-to-end figures and the tracing overhead's base.
    const bool traced_pass = opt.traced && pass % 2 == 1;
    const std::size_t k = (opt.traced ? pass / 2 : pass) % kScenarios;
    const Scenario& sc = scenarios[k];
    const std::uint64_t n = sc.in.segment_events;
    const std::size_t first = decide_us.size();
    const PassTiming timing =
        timed_pass(*sc.warm, sc.in, wl, traced_pass ? spans : nullptr,
                   decide_us, kinds);
    attempted += n;
    if (!(timing.end_state == sc.expected)) {
      fail("timed pass " + std::to_string(pass) +
           " ended in a different state than the check pass");
    }
    const double eps = static_cast<double>(n) / timing.wall_s;
    if (traced_pass) {
      traced_eps.push_back(eps);
      for (std::size_t i = first; i < decide_us.size(); ++i) {
        decide_in_traced_s += decide_us[i] * 1e-6;
      }
      traced_wall_s += timing.wall_s;
      // Traced passes stay out of the end-to-end decide samples.
      decide_us.resize(first);
      kinds.resize(first);
    } else {
      pass_eps.push_back(eps);
      keep_fastest(best_decide_us[k], decide_us.data() + first, n);
      keep_fastest(best_chunk_s[k], timing.chunk_s.data(),
                   timing.chunk_s.size());
    }
  }

  while (setups_done < later_setups) set_up_again();
  double setup_median_s = 0.0, generate_median_s = 0.0;
  for (std::size_t k = 0; k < kScenarios; ++k) {
    setup_median_s += median(setup_s[k]);
    generate_median_s += median(generate_s[k]);
  }

  // --- end-to-end metrics ----------------------------------------------
  // ops_per_s is one cycle's events over the sum of its fastest chunks;
  // op_p50_us and op_tail_us are percentiles over every event's fastest
  // decide time.
  double cycle_events = 0.0, cycle_s = 0.0;
  std::vector<double> fastest_us;
  for (std::size_t k = 0; k < kScenarios; ++k) {
    cycle_events += static_cast<double>(scenarios[k].in.segment_events);
    for (const double s : best_chunk_s[k]) cycle_s += s;
    fastest_us.insert(fastest_us.end(), best_decide_us[k].begin(),
                      best_decide_us[k].end());
  }
  const auto tail_beyond = samples_beyond(fastest_us.size(), 99.0);
  if (tail_beyond < kMinBeyond) {
    fail("op_tail_us (p99) has only " + std::to_string(tail_beyond) +
         " samples beyond it");
  }
  const auto samples = static_cast<std::uint64_t>(t.lat_ms.size());
  if (!opt.traced) {
    rep.add("ops_per_s", cycle_events / cycle_s, "1/s", decide_us.size());
    rep.add("op_p50_us", percentile(fastest_us, 50.0), "us", decide_us.size());
    rep.add("op_tail_us", percentile(fastest_us, 99.0), "us",
            decide_us.size());
    rep.add("setup_s", setup_median_s, "s", kScenarios * kSetups);
    rep.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
    rep.add("mean_latency_ms", mean(t.lat_ms), "ms", samples);
    rep.add("admit_rate", t.arrivals > 0 ? 1.0 - t.refused / t.arrivals : 1.0,
            "ratio", static_cast<std::uint64_t>(t.arrivals));
    rep.add("availability", mean(t.availability), "ratio", kScenarios);
    rep.add("nodes_in_service", mean(t.nodes_used), "count", samples);
    rep.add("instances_mean", mean(t.instances), "count", samples);
    std::string per_pass;
    for (const double eps : pass_eps) per_pass += " " + std::to_string(eps);
    out.context.push_back("decide tail: p99 of the fastest decide times with " +
                          std::to_string(tail_beyond) +
                          " samples beyond it; events/s per pass:" + per_pass);
    out.context.push_back(tail_summary("on_event us", decide_us));
  }

  // --- per-layer metrics (traced run) ------------------------------------
  if (opt.traced) {
    const Scenario& first = scenarios.front();
    const ServeInputs& in = first.in;
    const double events = t.events;
    const auto n_events = static_cast<std::uint64_t>(events);
    rep.add("workload.generate_s", generate_median_s, "s",
            kScenarios * kSetups);
    {
      std::vector<double> decode_ns;
      for (const Scenario& sc : scenarios) {
        ScopedSpan span(spans, "workload.decode_pass", "workload");
        nfv::workload::BinaryTraceDecoder decoder(sc.in.segment);
        StreamEvent ev;
        const auto t0 = Clock::now();
        std::uint64_t count = 0;
        while (decoder.next(ev)) ++count;
        decode_ns.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                            static_cast<double>(count));
      }
      rep.add("workload.decode_ns_per_event", median(decode_ns), "ns",
              decode_ns.size());
    }
    double bytes = 0.0;
    for (const Scenario& sc : scenarios) {
      bytes += static_cast<double>(sc.in.segment.size());
    }
    rep.add("workload.trace_bytes_per_event", bytes / events, "count",
            n_events);

    const double decide_mean_us = mean(decide_us);
    rep.add("serve.decide_share", decide_in_traced_s / traced_wall_s, "ratio",
            traced_eps.size());
    rep.add("serve.decide_mean_us", decide_mean_us, "us", decide_us.size());
    std::vector<std::vector<double>> by_kind(4);
    for (std::size_t i = 0; i < decide_us.size(); ++i) {
      by_kind[kinds[i]].push_back(decide_us[i]);
    }
    const char* kind_names[4] = {"serve.arrive_p50_us", "serve.depart_p50_us",
                                 "serve.rate_change_p50_us",
                                 "serve.node_event_p50_us"};
    for (std::size_t k = 0; k < 4; ++k) {
      rep.add(kind_names[k],
              by_kind[k].empty() ? 0.0 : percentile(by_kind[k], 50.0), "us",
              by_kind[k].size());
    }
    const double rebalances = t.rebalances / events;
    rep.add("serve.rebalances_per_event", rebalances, "ratio", n_events);
    rep.add("serve.migrations_per_event", t.migrations / events, "ratio",
            n_events);
    rep.add("serve.work_per_event", t.work / events, "ratio", n_events);
    rep.add("serve.live_requests_mean", mean(t.live), "count", samples);
    const double predict = mean(t.predict_us);
    rep.add("serve.predict_us", predict, "us", t.predict_us.size());
    rep.add("serve.predict_share", predict / decide_mean_us, "ratio",
            t.predict_us.size());
    const double rckk = mean(t.rckk_us);
    rep.add("serve.resolve_share_min", rckk * rebalances / decide_mean_us,
            "ratio", t.rckk_us.size());

    // Ablation on the first scenario: the same segment prefix on an engine
    // that never rebalances (migration_budget 0 returns before the RCKK
    // re-solve).
    const std::uint64_t prefix = std::max<std::uint64_t>(1, in.segment_events / 4);
    {
      ScopedSpan span(spans, "bench.ablation", "bench");
      nfv::serve::ServeConfig no_rebalance = wl.config;
      no_rebalance.migration_budget = 0;
      const ServeEngine warm_b0 = warm_engine(in, no_rebalance);
      const auto [with, without] = ab_prefix(*first.warm, workload_registry,
                                             warm_b0, workload_registry, in,
                                             prefix);
      rep.add("serve.rebalance_ablation_share", 1.0 - without / with, "ratio",
              kRepeats);
    }

    rep.add("serve.evacuated", t.evacuated, "count", n_events);
    rep.add("serve.parked", t.parked, "count", n_events);
    rep.add("serve.shed_fault", t.shed_fault, "count", n_events);
    rep.add("serve.autoscale_decisions", t.as_decisions, "count", n_events);
    rep.add("serve.autoscale_scale_outs", t.as_outs, "count", n_events);
    rep.add("serve.autoscale_scale_ins", t.as_ins, "count", n_events);
    rep.add("serve.autoscale_flaps", t.as_flaps, "count", n_events);
    rep.add("serve.instance_seconds", mean(t.instance_seconds), "s",
            kScenarios);
    rep.add("serve.checkpoint_save_ms", mean(t.save_ms), "ms",
            t.save_ms.size());
    rep.add("serve.checkpoint_restore_ms", mean(t.restore_ms), "ms",
            t.restore_ms.size());
    rep.add("serve.checkpoint_bytes_first", mean(t.checkpoint_first),
            "bytes", t.checkpoint_first.size());
    rep.add("serve.checkpoint_bytes_last", mean(t.checkpoint_last),
            "bytes", t.checkpoint_last.size());
    rep.add("serve.log_bytes", mean(t.log_bytes), "bytes", kScenarios);
    rep.add("serve.load_drift_max", t.drift, "1/s", samples);
    rep.add("scheduling.rckk_us", rckk, "us", t.rckk_us.size());
    rep.add("scheduling.members_per_vnf", mean(t.rckk_members),
            "count", t.rckk_members.size());

    // Telemetry on (timeline + lifecycle + registry) against off, on the
    // same segment prefix of the first scenario.
    {
      ScopedSpan span(spans, "bench.obs_overhead", "bench");
      nfv::serve::ServeConfig on = wl.config;
      on.snapshot_every = on.snapshot_every > 0.0 ? on.snapshot_every : 1.0;
      on.lifecycle = true;
      nfv::serve::ServeConfig off = wl.config;
      off.snapshot_every = 0.0;
      off.lifecycle = false;
      nfv::obs::MetricsRegistry on_registry;
      nfv::obs::set_registry(&on_registry);
      const ServeEngine warm_on = warm_engine(in, on);
      nfv::obs::set_registry(nullptr);
      const ServeEngine warm_off = warm_engine(in, off);
      nfv::obs::set_registry(workload_registry);
      const auto [t_on, t_off] =
          ab_prefix(warm_on, &on_registry, warm_off, nullptr, in, prefix);
      rep.add("obs.overhead_pct", 100.0 * (t_on - t_off) / t_off, "%",
              kRepeats);
    }
    rep.add("obs.lifecycle_events_per_event", t.lifecycle / events, "ratio",
            n_events);
    if (wl.config.snapshot_every > 0.0) {
      std::vector<double> doc_ms;
      std::size_t rows = 0;
      for (std::size_t k = 0; k < kRepeats; ++k) {
        ScopedSpan span(spans, "obs.timeline_doc", "obs");
        const auto t0 = Clock::now();
        rows = first.warm->timeline_doc(true).records.size();
        doc_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      }
      rep.add("obs.timeline_rows", static_cast<double>(rows), "count", 1);
      rep.add("obs.timeline_doc_ms", median(doc_ms), "ms", doc_ms.size());
    } else {
      rep.add("obs.timeline_rows", 0.0, "count", 0);
      rep.add("obs.timeline_doc_ms", 0.0, "ms", 0);
    }
    rep.add("bench.trace_overhead_pct",
            100.0 * (median(pass_eps) / median(traced_eps) - 1.0), "%",
            pass_eps.size() + traced_eps.size());

    out.context.push_back(
        "bottleneck: RCKK re-solves explain >= " +
        std::to_string(100.0 * rckk * rebalances / decide_mean_us) +
        "% of decide time (" + std::to_string(rckk) + " us per re-solve x " +
        std::to_string(rebalances) + " moving re-solves per event / " +
        std::to_string(decide_mean_us) +
        " us mean decide); the no-rebalance ablation attributes " +
        std::to_string(100.0 *
                       rep.find("serve.rebalance_ablation_share")->value) +
        "%; the Eq. 16 step (predicted_latencies() + mean + sorted p99) "
        "explains " +
        std::to_string(100.0 * predict / decide_mean_us) + "% (" +
        std::to_string(predict) + " us per step, one step per event)");
  }

  nfv::obs::set_registry(prev_registry);
  out.attempted = attempted;
  out.context.push_back(
      "run wall: " + std::to_string(seconds_between(run_start, Clock::now())) +
      " s");
  return out;
}

}  // namespace

RunResult run_crowd(const RunOptions& options) {
  return run_serve(crowd_workload(), options);
}

RunResult run_churn(const RunOptions& options) {
  return run_serve(churn_workload(), options);
}

}  // namespace perfbench
