#include <gtest/gtest.h>

#include "core/gap.hpp"
#include "core/requirements.hpp"
#include "core/scenario.hpp"
#include "core/whatif.hpp"

namespace sixg::core {
namespace {

// ------------------------------------------------------------- requirements

TEST(Requirements, RegistryContainsPaperApplications) {
  const auto& registry = RequirementsRegistry::paper_registry();
  EXPECT_GE(registry.all().size(), 6u);
  const auto& ar = registry.by_name("AR gaming (60 FPS)");
  EXPECT_DOUBLE_EQ(ar.user_perceived.ms(), 16.6);
  EXPECT_DOUBLE_EQ(ar.max_rtt.ms(), 20.0);
  const auto& robotics = registry.by_name("Real-time robotics");
  EXPECT_LT(robotics.user_perceived.ms(), 5.0);
}

TEST(Requirements, BindingRequirementIsFrameInterval) {
  const auto& binding =
      RequirementsRegistry::paper_registry().binding_requirement();
  EXPECT_DOUBLE_EQ(binding.user_perceived.ms(), 16.6);
}

TEST(Requirements, FeasibilityMatrixVerdicts) {
  const auto& registry = RequirementsRegistry::paper_registry();
  const std::vector<GenerationProfile> gens{
      GenerationProfile::fiveg_claimed(),
      GenerationProfile::fiveg_measured_urban(),
      GenerationProfile::sixg_target(),
  };
  const auto matrix = registry.feasibility_matrix(gens);
  // Row 0 is AR gaming: claimed 5G ok, measured 5G violates latency,
  // 6G target ok.
  const auto& ar_row = matrix.row(0);
  EXPECT_EQ(ar_row[2], "yes");
  EXPECT_EQ(ar_row[3], "latency!");
  EXPECT_EQ(ar_row[4], "yes");
}

TEST(Requirements, GenerationProfiles) {
  EXPECT_LT(GenerationProfile::sixg_target().radio_latency.ms(), 0.2);
  EXPECT_GT(GenerationProfile::fiveg_measured_urban().realistic_rtt.ms(),
            GenerationProfile::fiveg_claimed().realistic_rtt.ms());
}

// ------------------------------------------------------------ the campaign

/// The paper-shape regression suite: one shared campaign run checked
/// against every Section IV-C anchor. Bands are deliberately generous —
/// they pin the *shape* (which cell wins, rough magnitudes), not noise.
class CampaignShape : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    study_ = new KlagenfurtStudy();
    report_ = new meas::GridReport(
        study_->campaign(study_->access_profile(), 0x9a24)
            .run(netsim::ParallelRunner{}));
    wired_ = new stats::Summary(study_->wired_baseline());
  }
  static void TearDownTestSuite() {
    delete wired_;
    delete report_;
    delete study_;
    wired_ = nullptr;
    report_ = nullptr;
    study_ = nullptr;
  }
  static KlagenfurtStudy* study_;
  static meas::GridReport* report_;
  static stats::Summary* wired_;
};

KlagenfurtStudy* CampaignShape::study_ = nullptr;
meas::GridReport* CampaignShape::report_ = nullptr;
stats::Summary* CampaignShape::wired_ = nullptr;

TEST_F(CampaignShape, MinimumMeanCellIsC1Near61) {
  const auto min_mean = report_->min_mean();
  EXPECT_EQ(min_mean.label, "C1");  // paper: 61 ms at C1
  EXPECT_NEAR(min_mean.value, 61.0, 6.0);
}

TEST_F(CampaignShape, MaximumMeanCellIsC3Near110) {
  const auto max_mean = report_->max_mean();
  EXPECT_EQ(max_mean.label, "C3");  // paper: 110 ms at C3
  EXPECT_NEAR(max_mean.value, 110.0, 12.0);
}

TEST_F(CampaignShape, MostStableCellIsB3NearTwoMs) {
  const auto min_sd = report_->min_stddev();
  EXPECT_EQ(min_sd.label, "B3");  // paper: 1.8 ms at B3
  EXPECT_LT(min_sd.value, 3.5);
}

TEST_F(CampaignShape, BurstiestCellIsE5NearFortySix) {
  const auto max_sd = report_->max_stddev();
  EXPECT_EQ(max_sd.label, "E5");  // paper: 46.4 ms at E5
  EXPECT_NEAR(max_sd.value, 46.4, 10.0);
}

TEST_F(CampaignShape, TraversedThirtyThreeCells) {
  EXPECT_NEAR(report_->traversed_count(), 33, 3);
}

TEST_F(CampaignShape, AFewBorderCellsSuppressed) {
  EXPECT_GE(report_->suppressed_count(), 1);
  EXPECT_LE(report_->suppressed_count(), 6);
  // Every suppressed cell lies in the sparse border region, as the paper
  // observes.
  for (const auto cell : study_->grid().all_cells()) {
    const auto& r = report_->at(cell);
    if (r.traversed && r.sample_count < meas::GridReport::kMinSamples) {
      EXPECT_TRUE(study_->population().sparse(cell))
          << study_->grid().label(cell);
    }
  }
}

TEST_F(CampaignShape, AllReportingCellsInsidePaperRange) {
  for (const auto cell : study_->grid().all_cells()) {
    if (!report_->reports(cell)) continue;
    const double mean = report_->at(cell).rtt_ms.mean();
    EXPECT_GT(mean, 50.0) << study_->grid().label(cell);
    EXPECT_LT(mean, 125.0) << study_->grid().label(cell);
  }
}

TEST_F(CampaignShape, WiredBaselineInHorvathBand) {
  EXPECT_GT(wired_->mean(), 1.0);
  EXPECT_LT(wired_->mean(), 11.0);
}

TEST_F(CampaignShape, MobileOverWiredIsAboutSeven) {
  const double ratio = report_->mean_of_cell_means().mean() / wired_->mean();
  EXPECT_NEAR(ratio, 7.0, 2.0);
}

TEST_F(CampaignShape, GapAnalysisFindsThe270PercentExcess) {
  const GapAnalysis gap{
      *report_, *wired_,
      RequirementsRegistry::paper_registry().binding_requirement()};
  EXPECT_NEAR(gap.findings().requirement_excess_percent, 270.0, 60.0);
  EXPECT_EQ(gap.findings().min_cell_label, "C1");
  EXPECT_EQ(gap.summary_table().row_count(), 8u);
}

// ------------------------------------------------------------- what-if

class WhatIfFixture : public ::testing::Test {
 protected:
  static const WhatIfResult& find(const std::vector<WhatIfResult>& rows,
                                  const std::string& metric) {
    for (const auto& r : rows)
      if (r.metric == metric) return r;
    ADD_FAILURE() << "metric not found: " << metric;
    return rows.front();
  }
  const WhatIfEngine engine_{};
};

TEST_F(WhatIfFixture, LocalPeeringCollapsesHopsAndDistance) {
  const auto rows = engine_.local_peering();
  const auto& hops = find(rows, "UE->probe network hops");
  EXPECT_DOUBLE_EQ(hops.before, 10.0);
  EXPECT_LE(hops.after, 3.0);
  const auto& km = find(rows, "routed distance");
  EXPECT_GT(km.before, 2300.0);
  EXPECT_LT(km.after, 20.0);
}

TEST_F(WhatIfFixture, LocalPeeringReducesRtlButRadioRemains) {
  const auto rows = engine_.local_peering();
  const auto& rtl = find(rows, "mean RTL (5G access)");
  EXPECT_GT(rtl.before, rtl.after);
  // The radio leg still dominates: 5G access keeps the peered RTL well
  // above the wired regime — the paper's argument for also fixing the
  // access (V-B).
  EXPECT_GT(rtl.after, 15.0);
}

}  // namespace
}  // namespace sixg::core
