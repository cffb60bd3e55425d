// Section V-C walkthrough: admit the paper's application slices onto the
// topology, place network hypervisors under three strategies, and compare
// reactive vs predictive reconfiguration.

#include <cstdio>

#include "geo/gazetteer.hpp"
#include "slicing/admission.hpp"
#include "slicing/hypervisor.hpp"
#include "slicing/reconfig.hpp"
#include "topo/europe.hpp"

int main() {
  using namespace sixg;

  topo::EuropeOptions options;
  options.local_breakout = true;
  options.local_peering = true;
  const topo::EuropeTopology europe = topo::build_europe(options);

  // 1. End-to-end slice admission between the UE and the university edge.
  slicing::SliceAdmission admission{europe.net};
  const auto specs = std::vector<slicing::SliceSpec>{
      slicing::SliceSpec::ar_gaming(1),
      slicing::SliceSpec::remote_surgery(2),
      slicing::SliceSpec::vehicle_coordination(3),
      slicing::SliceSpec::video_streaming(4),
      slicing::SliceSpec::sensor_swarm(5),
  };
  std::printf("Slice admission UE -> university edge:\n");
  for (const auto& spec : specs) {
    const auto admitted =
        admission.admit(spec, europe.mobile_ue, europe.university_probe);
    std::printf("  %-20s (%s, %s budget): %s\n", spec.name.c_str(),
                slicing::to_string(spec.type),
                spec.latency_budget.str().c_str(),
                admitted ? "admitted" : "REJECTED");
  }

  // 2. Hypervisor placement across the carrier's candidate sites.
  const auto& gaz = geo::Gazetteer::central_europe();
  std::vector<slicing::HypervisorSite> sites;
  std::uint32_t id = 0;
  for (const char* city : {"Vienna", "Graz", "Klagenfurt", "Ljubljana"}) {
    sites.push_back(slicing::HypervisorSite{
        id++, city, gaz.find(city)->position, /*capacity_slices=*/6.0});
  }
  const slicing::HypervisorPlacer placer{sites};

  std::vector<slicing::SliceEndpoint> endpoints;
  for (const auto& spec : specs) {
    endpoints.push_back(slicing::SliceEndpoint{
        spec, gaz.find("Klagenfurt")->position, 1.0});
  }
  // A second population of slices homed at Vienna (the core).
  for (auto spec : specs) {
    spec.id += 100;
    endpoints.push_back(
        slicing::SliceEndpoint{spec, gaz.find("Vienna")->position, 1.0});
  }

  std::vector<slicing::PlacementOutcome> outcomes;
  for (const auto strategy : {slicing::PlacementStrategy::kLatencyAware,
                              slicing::PlacementStrategy::kResilienceAware,
                              slicing::PlacementStrategy::kLoadBalanced}) {
    outcomes.push_back(placer.place(endpoints, strategy));
  }
  std::printf("\nHypervisor placement strategies:\n%s\n",
              slicing::HypervisorPlacer::comparison(outcomes).str().c_str());

  // 3. Reactive vs predictive reconfiguration over a diurnal day.
  const slicing::ReconfigStudy::Params params;
  std::vector<slicing::ReconfigStudy::Outcome> reconfigs;
  for (const auto policy : {slicing::ReconfigPolicy::kReactive,
                            slicing::ReconfigPolicy::kPredictive}) {
    reconfigs.push_back(slicing::ReconfigStudy::run(policy, params));
  }
  std::printf("Reconfiguration policy over 24 h with load surges:\n%s",
              slicing::ReconfigStudy::comparison(reconfigs).str().c_str());
  return 0;
}
