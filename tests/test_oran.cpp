#include <gtest/gtest.h>

#include "oran/handover.hpp"
#include "oran/qos_xapp.hpp"
#include "oran/ric.hpp"

namespace sixg::oran {
namespace {

// ---------------------------------------------------------------- RIC

TEST(NearRtRic, LoopLatencyInNearRtBand) {
  const NearRtRic ric;
  const double ms = ric.expected_control_loop().ms();
  // O-RAN Near-RT control loops: 10 ms - 1 s.
  EXPECT_GT(ms, 1.0);
  EXPECT_LT(ms, 1000.0);
}

// ---------------------------------------------------------------- handover

TEST(Handover, ArchitectureOrdering) {
  const HandoverModel model;
  Rng rng{3};
  const auto core =
      model.storm(HandoverArchitecture::kCoreAnchored, 100.0, 4000, rng);
  const auto ric =
      model.storm(HandoverArchitecture::kRicConverged, 100.0, 4000, rng);
  const auto hybrid =
      model.storm(HandoverArchitecture::kHybrid, 100.0, 4000, rng);
  EXPECT_GT(core.mean(), ric.mean());
  EXPECT_GT(ric.mean(), hybrid.mean());
}

TEST(Handover, CoreAnchoredMagnitude) {
  // 5G baseline handover interruption: tens of ms.
  const HandoverModel model;
  Rng rng{4};
  const auto s =
      model.storm(HandoverArchitecture::kCoreAnchored, 50.0, 4000, rng);
  EXPECT_GT(s.mean(), 20.0);
  EXPECT_LT(s.mean(), 60.0);
}

TEST(Handover, StormDegradesCoreFasterThanRic) {
  const HandoverModel model;
  Rng rng{5};
  const auto core_low =
      model.storm(HandoverArchitecture::kCoreAnchored, 10.0, 3000, rng);
  const auto core_high =
      model.storm(HandoverArchitecture::kCoreAnchored, 1400.0, 3000, rng);
  const auto ric_low =
      model.storm(HandoverArchitecture::kRicConverged, 10.0, 3000, rng);
  const auto ric_high =
      model.storm(HandoverArchitecture::kRicConverged, 1400.0, 3000, rng);
  const double core_penalty = core_high.mean() - core_low.mean();
  const double ric_penalty = ric_high.mean() - ric_low.mean();
  EXPECT_GT(core_penalty, ric_penalty);  // the RIC has more headroom
}

TEST(Handover, StormTableShape) {
  const HandoverModel model;
  const auto table = model.storm_table({10.0, 100.0}, 200, 1);
  EXPECT_EQ(table.row_count(), 6u);  // 2 rates x 3 architectures
}

// ---------------------------------------------------------------- QoS xApp

TEST(QosXApp, ContextAwareBeatsLinearScan) {
  const QosXApp::WorkloadParams params;
  const auto linear =
      QosXApp::evaluate(core5g::RuleTable::Mode::kLinearScan, params);
  const auto ctx =
      QosXApp::evaluate(core5g::RuleTable::Mode::kContextAware, params);
  EXPECT_GT(linear.lookup_ns.mean(), 5.0 * ctx.lookup_ns.mean());
  EXPECT_GT(linear.update_ns.mean(), ctx.update_ns.mean());
}

TEST(QosXApp, MultipleUesPrioritisedSimultaneously) {
  const auto ctx = QosXApp::evaluate(core5g::RuleTable::Mode::kContextAware,
                                     QosXApp::WorkloadParams{});
  EXPECT_EQ(ctx.prioritised_ues,
            QosXApp::kActiveFlows / QosXApp::kFlowsPerUe);  // 48 / 3
}

}  // namespace
}  // namespace sixg::oran
