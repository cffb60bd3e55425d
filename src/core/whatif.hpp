/// @file whatif.hpp — local-peering what-if (Section V-A): the measured
/// scenario before and after local breakout with local IX peering.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "radio/conditions.hpp"

namespace sixg::core {

/// Before/after value of one metric under the local-peering fix.
struct WhatIfResult {
  std::string metric;      ///< what was measured
  double before = 0.0;
  double after = 0.0;
  std::string unit;
  [[nodiscard]] double improvement_factor() const {
    return after > 0.0 ? before / after : 0.0;
  }
};

/// Applies recommendation V-A (peer carrier and local networks at a local
/// IX, with local breakout) to the calibrated Klagenfurt world and
/// quantifies hops, routed distance and RTT of the UE -> probe path. The
/// `ablation-peering` scenario renders these rows.
class WhatIfEngine {
 public:
  struct Config {
    std::uint32_t samples = 3000;
    std::uint64_t seed = 0xbee5;
    /// Radio conditions of the evaluation cell (moderate urban).
    radio::CellConditions conditions{.load = 0.35,
                                     .quality = 0.85,
                                     .bler = 0.05,
                                     .spike_rate = 0.01};
  };

  explicit WhatIfEngine(Config config) : config_(config) {}
  WhatIfEngine() : WhatIfEngine(Config{}) {}

  /// Rebuild the topology with local breakout + local peering and
  /// compare hops, routed distance and RTT of the UE -> probe path.
  [[nodiscard]] std::vector<WhatIfResult> local_peering() const;

 private:
  Config config_;
};

}  // namespace sixg::core
