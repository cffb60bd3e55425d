#include <gtest/gtest.h>

#include "geo/gazetteer.hpp"
#include "slicing/admission.hpp"
#include "slicing/hypervisor.hpp"
#include "slicing/reconfig.hpp"
#include "slicing/slice.hpp"
#include "topo/europe.hpp"

namespace sixg::slicing {
namespace {

// ---------------------------------------------------------------- slices

TEST(SliceSpec, CanonicalSlices) {
  const auto ar = SliceSpec::ar_gaming(1);
  EXPECT_EQ(ar.type, SliceType::kUrllc);
  EXPECT_DOUBLE_EQ(ar.latency_budget.ms(), 20.0);
  const auto surgery = SliceSpec::remote_surgery(2);
  EXPECT_GT(surgery.reliability, ar.reliability);
  const auto video = SliceSpec::video_streaming(3);
  EXPECT_EQ(video.type, SliceType::kEmbb);
  EXPECT_GT(video.guaranteed_rate, ar.guaranteed_rate);
}

// ---------------------------------------------------------------- admission

class AdmissionFixture : public ::testing::Test {
 protected:
  AdmissionFixture() {
    topo::EuropeOptions options;
    options.local_breakout = true;
    options.local_peering = true;
    peered_ = std::make_unique<topo::EuropeTopology>(
        topo::build_europe(options));
    detour_ = std::make_unique<topo::EuropeTopology>(topo::build_europe());
  }
  std::unique_ptr<topo::EuropeTopology> peered_;
  std::unique_ptr<topo::EuropeTopology> detour_;
};

TEST_F(AdmissionFixture, UrllcNeedsTheLocalPath) {
  // V2X demands a 5 ms budget: feasible over the peered local fabric,
  // impossible over the continental detour (propagation alone kills it).
  SliceAdmission local{peered_->net};
  SliceAdmission remote{detour_->net};
  const auto spec = SliceSpec::vehicle_coordination(1);
  EXPECT_TRUE(local.admit(spec, peered_->mobile_ue,
                          peered_->university_probe).has_value());
  EXPECT_FALSE(remote.admit(spec, detour_->mobile_ue,
                            detour_->university_probe).has_value());
}

/// Guaranteed rate the path's 10 Gbps bottleneck link can reserve.
constexpr double kReservableMbps = SliceAdmission::kReservableShare * 10000.0;

TEST_F(AdmissionFixture, CapacityExhaustionRejects) {
  SliceAdmission admission{peered_->net};
  // AR slices (80 Mbps each) fill the share up to the last 80 Mbps.
  const auto ar_slices = std::uint32_t(kReservableMbps / 80.0) - 1;
  for (std::uint32_t i = 0; i < ar_slices; ++i) {
    ASSERT_TRUE(admission.admit(SliceSpec::ar_gaming(i), peered_->mobile_ue,
                                peered_->university_probe).has_value());
  }
  SliceSpec big = SliceSpec::video_streaming(1000);  // 400 Mbps guaranteed
  EXPECT_FALSE(admission.admit(big, peered_->mobile_ue,
                               peered_->university_probe).has_value());
  SliceSpec small = SliceSpec::sensor_swarm(1001);  // 5 Mbps
  EXPECT_TRUE(admission.admit(small, peered_->mobile_ue,
                              peered_->university_probe).has_value());
}

TEST_F(AdmissionFixture, ManySmallSlicesUntilFull) {
  SliceAdmission admission{peered_->net};
  int admitted = 0;
  for (std::uint32_t i = 0; i < 100; ++i) {
    SliceSpec spec = SliceSpec::ar_gaming(i);  // 80 Mbps each
    if (admission.admit(spec, peered_->mobile_ue,
                        peered_->university_probe))
      ++admitted;
  }
  EXPECT_EQ(admitted, int(kReservableMbps / 80.0));  // 6000 / 80 = 75
  EXPECT_EQ(admission.admitted_count(), std::size_t(admitted));
}

// -------------------------------------------------------------- hypervisor

class PlacerFixture : public ::testing::Test {
 protected:
  PlacerFixture() {
    const auto& gaz = geo::Gazetteer::central_europe();
    // Capacity is sized so that resilience placement (primary + disjoint
    // backup per slice, 24 loads total) always has room somewhere.
    sites_ = {
        HypervisorSite{0, "Vienna", gaz.find("Vienna")->position, 12.0},
        HypervisorSite{1, "Graz", gaz.find("Graz")->position, 12.0},
        HypervisorSite{2, "Ljubljana", gaz.find("Ljubljana")->position, 12.0},
    };
    std::uint32_t id = 0;
    for (const char* home : {"Klagenfurt", "Zagreb", "Munich", "Budapest"}) {
      for (int k = 0; k < 3; ++k) {
        endpoints_.push_back(SliceEndpoint{
            SliceSpec::ar_gaming(id++), gaz.find(home)->position, 1.0});
      }
    }
  }
  std::vector<HypervisorSite> sites_;
  std::vector<SliceEndpoint> endpoints_;
};

TEST_F(PlacerFixture, LatencyAwareMinimisesControlRtt) {
  const HypervisorPlacer placer{sites_};
  const auto latency =
      placer.place(endpoints_, PlacementStrategy::kLatencyAware);
  const auto balanced =
      placer.place(endpoints_, PlacementStrategy::kLoadBalanced);
  EXPECT_LE(latency.mean_control_rtt_ms, balanced.mean_control_rtt_ms);
}

TEST_F(PlacerFixture, LoadBalancedReducesPeakUtilisation) {
  const HypervisorPlacer placer{sites_};
  const auto latency =
      placer.place(endpoints_, PlacementStrategy::kLatencyAware);
  const auto balanced =
      placer.place(endpoints_, PlacementStrategy::kLoadBalanced);
  EXPECT_LE(balanced.max_site_utilization, latency.max_site_utilization);
}

TEST_F(PlacerFixture, ResilienceProvidesDisjointBackups) {
  const HypervisorPlacer placer{sites_};
  const auto resilient =
      placer.place(endpoints_, PlacementStrategy::kResilienceAware);
  EXPECT_DOUBLE_EQ(resilient.failover_coverage, 1.0);
  for (std::size_t i = 0; i < endpoints_.size(); ++i)
    EXPECT_NE(resilient.primary_site[i], resilient.backup_site[i]);
  const auto latency =
      placer.place(endpoints_, PlacementStrategy::kLatencyAware);
  EXPECT_DOUBLE_EQ(latency.failover_coverage, 0.0);
}

TEST_F(PlacerFixture, ControlRttIsFibrePhysics) {
  const auto& gaz = geo::Gazetteer::central_europe();
  const SliceEndpoint slice{SliceSpec::ar_gaming(1),
                            gaz.find("Klagenfurt")->position, 1.0};
  const HypervisorSite vienna{0, "Vienna", gaz.find("Vienna")->position, 8.0};
  const double rtt = HypervisorPlacer::control_rtt_ms(slice, vienna);
  // 2 x 234 km of fibre (~2.3 ms) + 0.35 ms stack.
  EXPECT_NEAR(rtt, 2.6, 0.3);
}

// ---------------------------------------------------------------- reconfig

TEST(Reconfig, PredictiveReducesViolations) {
  const ReconfigStudy::Params params;
  const auto reactive =
      ReconfigStudy::run(ReconfigPolicy::kReactive, params);
  const auto predictive =
      ReconfigStudy::run(ReconfigPolicy::kPredictive, params);
  EXPECT_LT(predictive.violations, reactive.violations / 2);
}

class ReconfigSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReconfigSeedSweep, PredictiveNeverWorseAcrossSeeds) {
  ReconfigStudy::Params params;
  params.seed = GetParam();
  const auto reactive =
      ReconfigStudy::run(ReconfigPolicy::kReactive, params);
  const auto predictive =
      ReconfigStudy::run(ReconfigPolicy::kPredictive, params);
  EXPECT_LE(predictive.violations, reactive.violations) << params.seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReconfigSeedSweep,
                         ::testing::Values(1, 7, 42, 99, 1234, 0x51ce));

TEST(Reconfig, BothPoliciesBoundReconfigurations) {
  const ReconfigStudy::Params params;
  for (const auto policy :
       {ReconfigPolicy::kReactive, ReconfigPolicy::kPredictive}) {
    const auto outcome = ReconfigStudy::run(policy, params);
    EXPECT_LT(outcome.reconfigurations, 60u);
    EXPECT_GT(outcome.reconfigurations, 0u);
    EXPECT_GT(outcome.mean_utilization, 0.2);
    EXPECT_LT(outcome.overprovision_factor, 4.0);
  }
}

TEST(Reconfig, Deterministic) {
  const ReconfigStudy::Params params;
  const auto a = ReconfigStudy::run(ReconfigPolicy::kPredictive, params);
  const auto b = ReconfigStudy::run(ReconfigPolicy::kPredictive, params);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.reconfigurations, b.reconfigurations);
}

}  // namespace
}  // namespace sixg::slicing
