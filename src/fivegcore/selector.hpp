#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "fivegcore/placement.hpp"

namespace sixg::core5g {

/// Traffic class of a flow, deciding how latency-hungry it is.
enum class FlowClass : std::uint8_t {
  kLatencyCritical,  ///< AR/robotics/V2X control loops
  kInteractive,      ///< video calls, cloud gaming
  kBulk,             ///< uploads, backups, model-weight syncs
};

/// A flow requesting user-plane anchoring.
struct FlowRequest {
  std::uint64_t id = 0;
  FlowClass flow_class = FlowClass::kBulk;
  double demand_units = 1.0;  ///< capacity the flow consumes at its anchor
};

/// Dynamic UPF selection (Section V-B): latency-sensitive flows anchor at
/// the edge while bulk traffic is offloaded to centralised cloud UPFs.
/// The edge site has finite capacity, so the selector must degrade
/// gracefully — the paper's "adaptive routing" argument is exactly this
/// policy knob.
class DynamicUpfSelector {
 public:
  /// Flow demand the edge site can anchor.
  static constexpr double kEdgeCapacityUnits = 40.0;

  struct Assignment {
    std::uint64_t flow_id = 0;
    FlowClass flow_class = FlowClass::kBulk;
    UpfPlacement anchor = UpfPlacement::kCloud;
  };

  /// Assign anchors in request order (first come, first anchored).
  [[nodiscard]] std::vector<Assignment> assign(
      const std::vector<FlowRequest>& flows);

  /// Remaining edge capacity after the last assign() call.
  [[nodiscard]] double edge_capacity_left() const { return edge_left_; }

 private:
  double edge_left_ = 0.0;
  double metro_left_ = 0.0;
};

/// Generates a mixed flow population for selector studies.
[[nodiscard]] std::vector<FlowRequest> synthesize_flows(
    std::uint32_t count, double latency_critical_share,
    double interactive_share, Rng& rng);

}  // namespace sixg::core5g
