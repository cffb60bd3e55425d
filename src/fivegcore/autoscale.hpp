#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/time.hpp"

namespace sixg::core5g {

/// UPF instance autoscaling, after the problem setting of Nguyen et al.
/// [29] (cited in Section V-B): PDU sessions arrive and depart, each
/// consuming capacity on one of a pool of UPF instances; the scaler
/// decides how many instances run. Spinning an instance up takes time
/// (cloud-native relocation is not free), so the policy choice shows up
/// as SLA violations vs wasted instance-hours.
enum class ScalingPolicy : std::uint8_t {
  kStatic,     ///< fixed pool sized for the mean
  kReactive,   ///< scale when utilisation crosses thresholds
  kPredictive, ///< pattern-aware (diurnal profile + residual)
};

[[nodiscard]] const char* to_string(ScalingPolicy p);

class UpfAutoscaleStudy {
 public:
  struct Params {
    std::uint32_t horizon_steps = 1440;      ///< one step = one minute
    double sessions_per_instance = 1000.0;   ///< capacity of one UPF
    double mean_sessions = 4200.0;           ///< diurnal mean offered
    double diurnal_amplitude = 0.8;          ///< peak swing vs mean
    double noise = 0.06;                     ///< relative load noise
    /// Flash crowds (events, outage fail-overs): sudden extra sessions.
    double surge_probability = 0.004;        ///< onset per step
    double surge_magnitude = 0.35;           ///< relative to mean
    std::uint32_t surge_duration_steps = 25;
    std::uint32_t spinup_steps = 6;          ///< instance boot time
    double target_utilization = 0.7;
    double violation_utilization = 0.95;     ///< SLA breach threshold
    std::uint32_t static_instances = 6;
    std::uint64_t seed = 0x5ca1e;
  };

  struct Outcome {
    ScalingPolicy policy{};
    std::uint32_t violation_steps = 0;
    double instance_hours = 0.0;
    std::uint32_t scale_actions = 0;
    double mean_utilization = 0.0;
  };

  [[nodiscard]] static Outcome run(ScalingPolicy policy,
                                   const Params& params);

  /// One row per outcome, in the given order.
  [[nodiscard]] static TextTable comparison(
      const std::vector<Outcome>& outcomes);
};

}  // namespace sixg::core5g
