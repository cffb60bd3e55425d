#pragma once

#include "common/rng.hpp"
#include "common/time.hpp"
#include "radio/profile.hpp"

namespace sixg::radio {

/// Layer-1/2 latency model of a 5G mmWave cell, after the measurement
/// methodology of Fezeu et al. [22] (the PHY reference the paper cites:
/// 4.4 % of packets under 1 ms, 22.36 % under 3 ms, application use case
/// dominating end-to-end delay).
///
/// mmWave PHY latency is bimodal-by-beam-state rather than load-driven:
///  * aligned   — the serving beam is spot on: one mini-slot, sub-ms;
///  * tracking  — small refinements steal a few slots (1-3 ms);
///  * realigning — beam sweep / blockage recovery dominates (3-15 ms).
class MmWavePhyModel {
 public:
  /// One-way PHY latency of one packet.
  [[nodiscard]] Duration sample_one_way(Rng& rng) const;
};

}  // namespace sixg::radio
