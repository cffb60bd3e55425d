#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/time.hpp"

namespace sixg::slicing {

/// Reconfiguration policy of the slicing control plane. The paper's
/// Section V-C closes on exactly this gap: "current hypervisor placement
/// strategies ... typically operate in a reactive rather than predictive
/// manner".
enum class ReconfigPolicy : std::uint8_t {
  kReactive,    ///< migrate/rescale only after an SLO violation is seen
  kPredictive,  ///< forecast load (EWMA + trend) and act ahead of time
};

[[nodiscard]] const char* to_string(ReconfigPolicy p);

/// Discrete-time study of a slice whose offered load follows a diurnal
/// pattern with random surges, served by a hypervisor/resource allocation
/// that can be rescaled — but rescaling takes time. Quantifies how many
/// SLO-violation minutes each policy accumulates.
class ReconfigStudy {
 public:
  struct Params {
    std::uint32_t horizon_steps = 1440;  ///< one step = one minute, 24 h
    double base_load = 0.40;             ///< of initially allocated capacity
    double diurnal_amplitude = 0.75;     ///< predictable peak on top of base
    double surge_probability = 0.006;    ///< per-step surprise-surge onset
    double surge_magnitude = 0.35;
    std::uint32_t surge_duration_steps = 20;
    double violation_threshold = 0.95;   ///< load/capacity ratio
    std::uint32_t rescale_delay_steps = 8;  ///< time to apply a new allocation
    double headroom_target = 0.70;       ///< desired post-rescale ratio
    /// Predictive policy forecasting margin beyond the rescale delay.
    std::uint32_t forecast_steps = 4;
    double ewma_alpha = 0.25;
    std::uint64_t seed = 0x51ce;
  };

  struct Outcome {
    ReconfigPolicy policy{};
    std::uint32_t violations = 0;        ///< steps in violation
    std::uint32_t reconfigurations = 0;  ///< rescale actions issued
    double mean_utilization = 0.0;
    double peak_utilization = 0.0;
    double overprovision_factor = 0.0;   ///< mean allocated / mean load
  };

  [[nodiscard]] static Outcome run(ReconfigPolicy policy,
                                   const Params& params);

  /// One row per outcome, in the given order.
  [[nodiscard]] static TextTable comparison(
      const std::vector<Outcome>& outcomes);
};

}  // namespace sixg::slicing
