#pragma once

#include "common/time.hpp"

namespace sixg::oran {

/// Near-Real-Time RAN Intelligent Controller: hosts xApps, terminates E2.
/// Models the control-loop latency (E2 report + xApp inference + E2
/// control) and decision queueing when many cells feed one RIC.
class NearRtRic {
 public:
  struct Config {
    /// Current offered decision rate (drives queueing).
    double offered_rate_per_sec = 800.0;
  };

  explicit NearRtRic(Config config) : config_(config) {}

  [[nodiscard]] const Config& config() const { return config_; }

  /// Deterministic mean (M/M/1 queue around the inference stage).
  [[nodiscard]] Duration expected_control_loop() const;

 private:
  [[nodiscard]] double utilization() const;
  Config config_;
};

}  // namespace sixg::oran
