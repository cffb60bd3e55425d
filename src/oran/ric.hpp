#pragma once

#include "common/time.hpp"

namespace sixg::oran {

/// Near-Real-Time RAN Intelligent Controller: hosts xApps, terminates E2.
/// Models the control-loop latency (E2 report + xApp inference + E2
/// control) and decision queueing when many cells feed one RIC.
class NearRtRic {
 public:
  /// Deterministic mean (M/M/1 queue around the inference stage).
  [[nodiscard]] Duration expected_control_loop() const;
};

}  // namespace sixg::oran
