#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "fivegcore/upf.hpp"
#include "radio/link_model.hpp"
#include "topo/europe.hpp"

namespace sixg::core5g {

/// Candidate anchor points for the user plane, ordered from farthest to
/// nearest (the paper's Section V-B progression). kNone is the measured
/// status quo: the user plane exits at the remote CGNAT and the service
/// (at the university) is reached over the public-Internet detour.
enum class UpfPlacement : std::uint8_t { kNone, kCloud, kMetro, kEdge };

[[nodiscard]] const char* to_string(UpfPlacement placement);

/// One row of the placement study.
struct PlacementResult {
  UpfPlacement placement = UpfPlacement::kNone;
  std::string access_profile;
  double mean_rtt_ms = 0.0;  ///< UE <-> service, user-plane round trip
  double p99_rtt_ms = 0.0;
  double anchor_km = 0.0;    ///< UE -> anchor tunnel distance
  double reduction_vs_baseline = 0.0;  ///< 1 - rtt/baseline_rtt
};

/// Evaluates user-plane latency for UPF anchor placements over the
/// central-European scenario.
///
/// With UPF integration the AI service is hosted at the anchor itself
/// ("UPF-hosted services allow direct access by user equipment",
/// Section V-B), so latency = radio + anchor tunnel + UPF pipeline.
/// Without it (kNone) the service sits in the university network and
/// traffic takes the measured continental detour. Reproduces the claim
/// that edge anchoring cuts latency from >62 ms to the 5-6.2 ms range
/// (~90 % reduction) once the access layer cooperates.
class UpfPlacementStudy {
 public:
  explicit UpfPlacementStudy(const topo::EuropeTopology& europe)
      : europe_(&europe) {}

  /// Evaluate one placement under one access profile.
  [[nodiscard]] PlacementResult evaluate(
      UpfPlacement placement, const radio::AccessProfile& profile) const;

  /// The sweep the bench prints: the measured baseline (kNone + 5G-NSA)
  /// followed by cloud/metro/edge anchors under NSA, SA-URLLC and 6G.
  [[nodiscard]] std::vector<PlacementResult> sweep() const;

  [[nodiscard]] static TextTable table(
      const std::vector<PlacementResult>& rows);

 private:
  struct AnchorLeg {
    double distance_km = 0.0;
    Duration extra;  ///< anchor processing (CGNAT-class at the far sites)
  };
  [[nodiscard]] AnchorLeg anchor_leg(UpfPlacement placement) const;

  const topo::EuropeTopology* europe_;
};

}  // namespace sixg::core5g
