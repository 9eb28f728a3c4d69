// Autoscaling policies for the serving engine (DESIGN.md §16): pure,
// deterministic per-VNF sizing functions behind one interface.  The
// ScalingController (autoscale.h) evaluates one of these at every decision
// window and turns the returned instance-count delta into scale-out /
// drain-then-retire actions through the existing engine paths.
//
//  * reactive — utilization bands with hysteresis: scale out above the
//    high watermark, drain one instance below the low watermark but only
//    when the survivors would still sit under the high band (so a single
//    action can never bounce straight back).
//
//  * predictive — EWMA + linear-trend forecast of the per-VNF offered
//    rate, sized to `forecast_windows` ahead with a multiplicative safety
//    margin.
//
// Both are pure functions of (config, observation, forecaster state) — no
// RNG, no wall clock — so decisions are bit-identical for any --threads /
// batch size and across checkpoint/resume.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace nfv::serve {

/// Which sizing policy the controller runs; kOff disables the subsystem
/// entirely (no controller state, byte-identical checkpoints to a build
/// that never had autoscaling).
enum class ScalePolicy : std::uint8_t { kOff, kReactive, kPredictive };

[[nodiscard]] std::string_view to_string(ScalePolicy policy);
/// Parses "off" / "reactive" / "predictive"; nullopt on anything else.
[[nodiscard]] std::optional<ScalePolicy> parse_scale_policy(
    std::string_view text);

/// Controller tunables, validated in ServeConfig::validate() (only when
/// the policy is on, so an off config can never fail validation).
struct AutoscaleConfig {
  ScalePolicy policy = ScalePolicy::kOff;
  /// Decision cadence Δ in trace-time units: the controller evaluates at
  /// every window boundary k·Δ crossed by the event stream.
  double scale_interval = 0.5;
  /// Reactive band: scale out when offered / capacity exceeds this.
  double high_watermark = 0.80;
  /// Reactive band: drain one instance when utilization falls below this
  /// (and the survivors stay under the high band — hysteresis).
  double low_watermark = 0.30;
  /// Decision windows a VNF stays silent after any action (flap damping).
  std::uint32_t cooldown_windows = 2;
  /// Max instances opened or drained per VNF per decision window.
  std::uint32_t max_step = 1;
  /// Predictive: EWMA smoothing factor in (0, 1].
  double ewma_alpha = 0.30;
  /// Predictive: look-ahead horizon in decision windows (trend extrapolation).
  double forecast_windows = 2.0;
  /// Predictive: fractional capacity headroom held above the forecast.
  double safety_margin = 0.15;

  [[nodiscard]] bool enabled() const { return policy != ScalePolicy::kOff; }
  /// Throws std::invalid_argument on NaN / out-of-range tunables.
  void validate() const;
};

/// What the controller observed for one VNF at a decision boundary.
struct VnfObservation {
  /// Σ effective rate (λ/P) wanting this VNF: placed load plus the demand
  /// of queued and retry-parked requests whose chain contains it.
  double offered = 0.0;
  /// Per-instance admission limit (1 − headroom) · μ_f at this boundary.
  double capacity_per_instance = 0.0;
  /// Active, non-draining instances (the capacity-bearing set).
  std::uint32_t instances = 0;
  /// Queued + retrying requests whose chain contains this VNF
  /// (admission pressure: forces at least one step out even when the
  /// placed-load bands look calm).
  std::uint32_t waiting = 0;
};

/// Per-VNF forecaster state (checkpointed verbatim — see DESIGN.md §16).
struct VnfPolicyState {
  double ewma = 0.0;       ///< EWMA of the offered rate
  double prev_ewma = 0.0;  ///< previous window's EWMA (trend term)
  bool seeded = false;     ///< first observation copies instead of blending
  std::uint64_t cooldown_until = 0;  ///< first window allowed to act again
  std::int8_t last_sign = 0;         ///< direction of the last action
  std::uint64_t last_action_window = 0;
};

/// Raw instance-count delta for one VNF (before cooldown gating and the
/// max_step clamp, which the controller applies).  Positive opens,
/// negative drains.
[[nodiscard]] std::int32_t reactive_delta(const AutoscaleConfig& cfg,
                                          const VnfObservation& obs);
[[nodiscard]] std::int32_t predictive_delta(const AutoscaleConfig& cfg,
                                            const VnfObservation& obs,
                                            const VnfPolicyState& state);

}  // namespace nfv::serve
