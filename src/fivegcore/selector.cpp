#include "fivegcore/selector.hpp"

namespace sixg::core5g {
namespace {

constexpr double kMetroCapacityUnits = 400.0;

}  // namespace

std::vector<DynamicUpfSelector::Assignment> DynamicUpfSelector::assign(
    const std::vector<FlowRequest>& flows) {
  edge_left_ = kEdgeCapacityUnits;
  metro_left_ = kMetroCapacityUnits;
  std::vector<Assignment> out;
  out.reserve(flows.size());
  for (const FlowRequest& f : flows) {
    Assignment a{f.id, f.flow_class, UpfPlacement::kCloud};
    switch (f.flow_class) {
      case FlowClass::kLatencyCritical:
        if (edge_left_ >= f.demand_units) {
          a.anchor = UpfPlacement::kEdge;
          edge_left_ -= f.demand_units;
        } else if (metro_left_ >= f.demand_units) {
          a.anchor = UpfPlacement::kMetro;  // graceful degradation
          metro_left_ -= f.demand_units;
        }
        break;
      case FlowClass::kInteractive:
        if (metro_left_ >= f.demand_units) {
          a.anchor = UpfPlacement::kMetro;
          metro_left_ -= f.demand_units;
        }
        break;
      case FlowClass::kBulk:
        break;  // centralised cloud UPF by policy
    }
    out.push_back(a);
  }
  return out;
}

std::vector<FlowRequest> synthesize_flows(std::uint32_t count,
                                          double latency_critical_share,
                                          double interactive_share,
                                          Rng& rng) {
  std::vector<FlowRequest> flows;
  flows.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    FlowRequest f;
    f.id = i;
    const double roll = rng.uniform();
    if (roll < latency_critical_share) {
      f.flow_class = FlowClass::kLatencyCritical;
      f.demand_units = rng.uniform(0.5, 1.5);
    } else if (roll < latency_critical_share + interactive_share) {
      f.flow_class = FlowClass::kInteractive;
      f.demand_units = rng.uniform(1.0, 3.0);
    } else {
      f.flow_class = FlowClass::kBulk;
      f.demand_units = rng.uniform(2.0, 8.0);
    }
    flows.push_back(f);
  }
  return flows;
}

}  // namespace sixg::core5g
