/// @file whatif.hpp — local-peering what-if (Section V-A): the measured
/// scenario before and after local breakout with local IX peering.
#pragma once

#include <string>
#include <vector>

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
  /// Rebuild the topology with local breakout + local peering and
  /// compare hops, routed distance and RTT of the UE -> probe path.
  [[nodiscard]] std::vector<WhatIfResult> local_peering() const;
};

}  // namespace sixg::core
