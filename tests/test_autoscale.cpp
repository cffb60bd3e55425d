#include <gtest/gtest.h>

#include "fivegcore/autoscale.hpp"
#include "topo/backbone.hpp"

namespace sixg {
namespace {

using core5g::ScalingPolicy;
using core5g::UpfAutoscaleStudy;

TEST(UpfAutoscale, StaticPoolBreachesAtPeak) {
  const UpfAutoscaleStudy::Params params;
  const auto outcome = UpfAutoscaleStudy::run(ScalingPolicy::kStatic, params);
  // mean 4200 sessions, amplitude 0.8 -> peak ~5880 > 6 x 1000 x 0.95.
  EXPECT_GT(outcome.violation_steps, 50u);
  EXPECT_EQ(outcome.scale_actions, 0u);
}

TEST(UpfAutoscale, ElasticPoliciesReduceViolations) {
  const UpfAutoscaleStudy::Params params;
  const auto statics = UpfAutoscaleStudy::run(ScalingPolicy::kStatic, params);
  const auto reactive =
      UpfAutoscaleStudy::run(ScalingPolicy::kReactive, params);
  const auto predictive =
      UpfAutoscaleStudy::run(ScalingPolicy::kPredictive, params);
  // Elastic pools absorb the diurnal ramp entirely; only unpredictable
  // flash crowds leave residual violations. The pattern-aware policy is
  // never worse than the reactive one.
  EXPECT_LT(reactive.violation_steps, statics.violation_steps / 10);
  EXPECT_LE(predictive.violation_steps, reactive.violation_steps);
}

TEST(UpfAutoscale, ElasticityCostsFewInstanceHoursThanPeakProvisioning) {
  UpfAutoscaleStudy::Params params;
  // A static pool sized for the peak never violates but burns hours.
  params.static_instances = 9;
  const auto peak_static =
      UpfAutoscaleStudy::run(ScalingPolicy::kStatic, params);
  const auto predictive =
      UpfAutoscaleStudy::run(ScalingPolicy::kPredictive, params);
  EXPECT_EQ(peak_static.violation_steps, 0u);
  EXPECT_LT(predictive.instance_hours, peak_static.instance_hours);
}

TEST(UpfAutoscale, Deterministic) {
  const UpfAutoscaleStudy::Params params;
  const auto a = UpfAutoscaleStudy::run(ScalingPolicy::kPredictive, params);
  const auto b = UpfAutoscaleStudy::run(ScalingPolicy::kPredictive, params);
  EXPECT_EQ(a.violation_steps, b.violation_steps);
  EXPECT_DOUBLE_EQ(a.instance_hours, b.instance_hours);
}

TEST(UpfAutoscale, ComparisonTableHasThreeRows) {
  const UpfAutoscaleStudy::Params params;
  std::vector<UpfAutoscaleStudy::Outcome> outcomes;
  for (const auto policy : {ScalingPolicy::kStatic, ScalingPolicy::kReactive,
                            ScalingPolicy::kPredictive}) {
    outcomes.push_back(UpfAutoscaleStudy::run(policy, params));
  }
  const auto table = UpfAutoscaleStudy::comparison(outcomes);
  EXPECT_EQ(table.row_count(), 3u);
}

// ---------------------------------------------------------------- backbone

TEST(Backbone, FullReachabilityAcrossStubs) {
  const auto backbone = topo::build_backbone(2);
  ASSERT_GE(backbone.stub_hosts.size(), 10u);
  // Every stub reaches every other stub under policy routing (all are in
  // some tier-1's customer cone; tier-1s peer).
  for (std::size_t i = 0; i < backbone.stub_hosts.size(); i += 5) {
    for (std::size_t j = 1; j < backbone.stub_hosts.size(); j += 7) {
      const auto path = backbone.net.find_path(backbone.stub_hosts[i],
                                               backbone.stub_hosts[j]);
      EXPECT_TRUE(i == j || path.valid()) << i << "->" << j;
    }
  }
}

TEST(Backbone, ScaleMatchesGazetteer) {
  const auto backbone = topo::build_backbone(3);
  // 2 tier-1 + one ISP per city + 3 stubs per city.
  EXPECT_EQ(backbone.regional.size(), 15u);
  EXPECT_EQ(backbone.stub_hosts.size(), 45u);
  EXPECT_EQ(backbone.net.as_count(), 2u + 15u + 45u);
}

TEST(Backbone, LocalStubsCommunicateLocally) {
  const auto backbone = topo::build_backbone(2);
  // Two stubs of the same city route through their shared regional ISP:
  // 3 router hops (host -> core -> host), no continental detour.
  const auto path = backbone.net.find_path(backbone.stub_hosts[0],
                                           backbone.stub_hosts[1]);
  ASSERT_TRUE(path.valid());
  EXPECT_EQ(path.hop_count(), 2u);
  EXPECT_LT(path.distance_km, 30.0);
}

TEST(Backbone, CrossContinentPathsTransitTier1) {
  const auto backbone = topo::build_backbone(1);
  // Klagenfurt (index 0 in the gazetteer) to Warsaw-ish stubs must climb
  // into a tier-1.
  const auto path = backbone.net.find_path(backbone.stub_hosts.front(),
                                           backbone.stub_hosts.back());
  ASSERT_TRUE(path.valid());
  EXPECT_GE(path.hop_count(), 4u);
}

}  // namespace
}  // namespace sixg
