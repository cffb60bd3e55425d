#include "oran/ric.hpp"

#include <cmath>

namespace sixg::oran {
namespace {

constexpr Duration kE2Transport = Duration::from_millis_f(1.8);  ///< one way
constexpr Duration kXappInference = Duration::from_millis_f(2.5);
/// Decisions the RIC can process per second (shared across cells).
constexpr double kDecisionCapacityPerSec = 4000.0;
/// Current offered decision rate (drives queueing).
constexpr double kOfferedRatePerSec = 800.0;
constexpr double kUtilization = kOfferedRatePerSec / kDecisionCapacityPerSec;
static_assert(kUtilization >= 0.0 && kUtilization <= 0.97,
              "offered rate must keep the decision queue stable");

}  // namespace

Duration NearRtRic::expected_control_loop() const {
  const double service_ms = 1000.0 / kDecisionCapacityPerSec;
  const double wait_ms = service_ms * kUtilization / (1.0 - kUtilization);
  const double inference_mean =
      kXappInference.ms() * std::exp(0.25 * 0.25 / 2.0);
  return kE2Transport + kE2Transport +
         Duration::from_millis_f(inference_mean + wait_ms);
}

}  // namespace sixg::oran
