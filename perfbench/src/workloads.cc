#include "workloads.h"

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"ops_per_s", "1/s"},       {"op_p50_us", "us"},
      {"op_tail_us", "us"},       {"setup_s", "s"},
      {"peak_rss_mb", "MB"},      {"mean_latency_ms", "ms"},
      {"admit_rate", "ratio"},    {"availability", "ratio"},
      {"nodes_in_service", "count"}, {"instances_mean", "count"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"workload.generate_s", "s"},
      {"workload.decode_ns_per_event", "ns"},
      {"workload.trace_bytes_per_event", "count"},
      {"serve.decide_share", "ratio"},
      {"serve.decide_mean_us", "us"},
      {"serve.arrive_p50_us", "us"},
      {"serve.depart_p50_us", "us"},
      {"serve.rate_change_p50_us", "us"},
      {"serve.node_event_p50_us", "us"},
      {"serve.rebalances_per_event", "ratio"},
      {"serve.migrations_per_event", "ratio"},
      {"serve.work_per_event", "ratio"},
      {"serve.live_requests_mean", "count"},
      {"serve.predict_us", "us"},
      {"serve.predict_share", "ratio"},
      {"serve.resolve_share_min", "ratio"},
      {"serve.rebalance_ablation_share", "ratio"},
      {"serve.evacuated", "count"},
      {"serve.parked", "count"},
      {"serve.shed_fault", "count"},
      {"serve.autoscale_decisions", "count"},
      {"serve.autoscale_scale_outs", "count"},
      {"serve.autoscale_scale_ins", "count"},
      {"serve.autoscale_flaps", "count"},
      {"serve.instance_seconds", "s"},
      {"serve.checkpoint_save_ms", "ms"},
      {"serve.checkpoint_restore_ms", "ms"},
      {"serve.checkpoint_bytes_first", "bytes"},
      {"serve.checkpoint_bytes_last", "bytes"},
      {"serve.log_bytes", "bytes"},
      {"serve.load_drift_max", "1/s"},
      {"scheduling.rckk_us", "us"},
      {"scheduling.members_per_vnf", "count"},
      {"scheduling.rckk_ms", "ms"},
      {"placement.bfdsu_ms", "ms"},
      {"placement.pso_ms", "ms"},
      {"placement.lp_ms", "ms"},
      {"core.wins_bfdsu", "count"},
      {"core.wins_pso", "count"},
      {"core.wins_lp", "count"},
      {"exec.race_speedup", "ratio"},
      {"obs.overhead_pct", "%"},
      {"obs.lifecycle_events_per_event", "ratio"},
      {"obs.timeline_rows", "count"},
      {"obs.timeline_doc_ms", "ms"},
      {"bench.trace_overhead_pct", "%"},
      {"workload.self_share", "ratio"},
      {"serve.self_share", "ratio"},
      {"scheduling.self_share", "ratio"},
      {"placement.self_share", "ratio"},
      {"core.self_share", "ratio"},
      {"obs.self_share", "ratio"},
      {"bench.self_share", "ratio"},
  };
  return specs;
}

}  // namespace perfbench
