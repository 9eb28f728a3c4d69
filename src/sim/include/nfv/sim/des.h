// Packet-level discrete-event simulator.
//
// Validates the paper's Jackson-network analytics and produces the tail
// statistics the closed forms can't: stations are single-server FCFS
// queues with exponential service; flows inject Poisson packet streams
// that traverse a fixed station path with per-hop link latencies; after
// the last station a packet is delivered with probability P — otherwise a
// NACK sends it back to the first station (the Fig. 3 feedback loop), so
// the per-station offered rate converges to λ/P as Burke's theorem
// predicts.
#pragma once

#include <cstdint>
#include <vector>

#include "nfv/common/rng.h"
#include "nfv/common/stats.h"

namespace nfv::sim {

/// One service station (a VNF service instance): an FCFS M/M/1 queue.
struct Station {
  double service_rate = 0.0;  ///< μ > 0, packets/s
};

/// One request's packet stream.
struct Flow {
  double rate = 0.0;           ///< external Poisson rate λ, packets/s
  double delivery_prob = 1.0;  ///< P ∈ (0, 1]
  /// Station indices visited in order (the scheduled chain).
  std::vector<std::uint32_t> path;
  /// Latency of the hop *into* each station plus the final hop to the
  /// destination: size == path.size() + 1.  Empty means all-zero.
  std::vector<double> hop_latency;
};

/// The simulated system.
struct SimNetwork {
  std::vector<Station> stations;
  std::vector<Flow> flows;

  void validate() const;
};

/// Simulation horizon and measurement controls.
struct SimConfig {
  double duration = 100.0;   ///< simulated seconds (measurement window end)
  double warmup = 10.0;      ///< transient to discard
  std::uint64_t seed = 1;
  /// Keep raw per-packet end-to-end samples (enables quantiles; costs
  /// memory proportional to delivered packets).
  bool keep_samples = false;
};

/// Per-station measurements over the post-warmup window.
struct StationResult {
  OnlineStats response;      ///< per-visit sojourn (queue wait + service)
  double utilization = 0.0;  ///< busy time / window
  std::uint64_t visits = 0;  ///< served visits counted
  double arrival_rate = 0.0; ///< measured offered rate (visits / window)
  /// Time-averaged number in system (queue + in service), by area
  /// integration — the N of Little's law, measured directly.
  double mean_in_system = 0.0;
};

/// Per-flow measurements over the post-warmup window.
struct FlowResult {
  OnlineStats end_to_end;    ///< injection → successful delivery, incl.
                             ///< retransmission rounds and link latency
  SampleSet samples;         ///< raw end-to-end samples if keep_samples
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t retransmissions = 0;  ///< end-of-chain NACK retransmissions
};

/// Complete simulation output.
struct SimResult {
  std::vector<StationResult> stations;
  std::vector<FlowResult> flows;
  std::uint64_t events_processed = 0;
  double measured_window = 0.0;  ///< duration − warmup
};

/// Runs the simulation to completion.  Deterministic given config.seed.
[[nodiscard]] SimResult simulate(const SimNetwork& network,
                                 const SimConfig& config);

/// Convenience: simulate a single M/M/1 queue (one station, one flow,
/// P = 1) — used by validation tests against the closed forms.
[[nodiscard]] SimResult simulate_mm1(double arrival_rate, double service_rate,
                                     const SimConfig& config);

}  // namespace nfv::sim
