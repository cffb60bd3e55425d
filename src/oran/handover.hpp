#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/time.hpp"
#include "oran/ric.hpp"
#include "stats/summary.hpp"

namespace sixg::oran {

/// How mobility (handover) signalling is organised.
enum class HandoverArchitecture : std::uint8_t {
  kCoreAnchored,   ///< 5G baseline: RAN measurement -> AMF/SMF in the core
                   ///< -> path switch; every leg crosses the backhaul
  kRicConverged,   ///< Section V-C / [38]: session + mobility state at the
                   ///< Near-RT RIC on the edge; core only notified async
  kHybrid,         ///< break-before-make handled at gNB, policy at RIC
};

[[nodiscard]] const char* to_string(HandoverArchitecture a);

/// Latency model of one handover's user-plane interruption, and of
/// control-plane saturation when many UEs hand over at once (drive-test
/// conditions: a tram of phones crossing a cell edge).
class HandoverModel {
 public:
  /// Sample the user-plane interruption of one handover at the given
  /// handover rate (events/s across the control plane).
  [[nodiscard]] Duration sample_interruption(HandoverArchitecture arch,
                                             double handover_rate_per_sec,
                                             Rng& rng) const;

  /// Summary over `count` handovers (the storm study's primitive).
  [[nodiscard]] stats::Summary storm(HandoverArchitecture arch,
                                     double handover_rate_per_sec,
                                     std::uint32_t count, Rng& rng) const;

  /// Sweep rates x architectures and render the comparison table.
  [[nodiscard]] TextTable storm_table(const std::vector<double>& rates,
                                      std::uint32_t count,
                                      std::uint64_t seed) const;
};

}  // namespace sixg::oran
