#include "oran/ric.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace sixg::oran {

NearRtRic::NearRtRic(Config config) : config_(config) {
  SIXG_ASSERT(config_.decision_capacity_per_sec > 0, "capacity must be > 0");
}

double NearRtRic::utilization() const {
  return std::clamp(
      config_.offered_rate_per_sec / config_.decision_capacity_per_sec, 0.0,
      0.97);
}

Duration NearRtRic::expected_control_loop() const {
  const double u = utilization();
  const double service_ms = 1000.0 / config_.decision_capacity_per_sec;
  const double wait_ms = service_ms * u / (1.0 - u);
  const double inference_mean =
      config_.xapp_inference.ms() * std::exp(0.25 * 0.25 / 2.0);
  return config_.e2_transport + config_.e2_transport +
         Duration::from_millis_f(inference_mean + wait_ms);
}

}  // namespace sixg::oran
