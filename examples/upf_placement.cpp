// Section V-B walkthrough: sweep UPF anchor placements and access
// generations, then let the dynamic selector anchor a mixed flow
// population.

#include <cstdio>

#include "fivegcore/placement.hpp"
#include "fivegcore/selector.hpp"
#include "topo/europe.hpp"

int main() {
  using namespace sixg;

  topo::EuropeOptions options;
  options.local_breakout = true;
  const topo::EuropeTopology europe = topo::build_europe(options);

  // Placement x access sweep.
  const core5g::UpfPlacementStudy study{europe};
  const auto rows = study.sweep();
  std::printf("UPF placement study (service colocated with the anchor):\n%s\n",
              core5g::UpfPlacementStudy::table(rows).str().c_str());

  // Dynamic UPF selection over a mixed flow population.
  Rng rng{2024};
  const auto flows = core5g::synthesize_flows(
      /*count=*/400, /*latency_critical_share=*/0.15,
      /*interactive_share=*/0.35, rng);

  core5g::DynamicUpfSelector selector;
  const auto assignments = selector.assign(flows);

  int at_edge = 0;
  int at_metro = 0;
  int at_cloud = 0;
  int critical_at_edge = 0;
  int critical_total = 0;
  for (const auto& a : assignments) {
    switch (a.anchor) {
      case core5g::UpfPlacement::kEdge:
        ++at_edge;
        break;
      case core5g::UpfPlacement::kMetro:
        ++at_metro;
        break;
      default:
        ++at_cloud;
        break;
    }
    if (a.flow_class == core5g::FlowClass::kLatencyCritical) {
      ++critical_total;
      if (a.anchor == core5g::UpfPlacement::kEdge) ++critical_at_edge;
    }
  }
  std::printf("Dynamic UPF selection over %zu flows:\n", assignments.size());
  std::printf("  edge: %d   metro: %d   cloud: %d\n", at_edge, at_metro,
              at_cloud);
  std::printf("  latency-critical flows anchored at the edge: %d of %d\n",
              critical_at_edge, critical_total);
  std::printf("  edge capacity left: %.1f units\n",
              selector.edge_capacity_left());
  return 0;
}
