#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "fivegcore/placement.hpp"
#include "fivegcore/rules.hpp"
#include "fivegcore/selector.hpp"
#include "fivegcore/session.hpp"
#include "fivegcore/upf.hpp"
#include "stats/summary.hpp"
#include "topo/europe.hpp"

namespace sixg::core5g {
namespace {

// ---------------------------------------------------------------- RuleTable

TEST(RuleTable, LookupFindsInstalledRule) {
  RuleTable table{RuleTable::Mode::kLinearScan};
  (void)table.add_rule(PdrRule{1, 100, 1, 0});
  (void)table.add_rule(PdrRule{2, 200, 1, 1});
  const auto outcome = table.lookup(200);
  EXPECT_TRUE(outcome.matched);
  EXPECT_EQ(outcome.scanned, 2u);
}

TEST(RuleTable, LookupMissScansWholeTable) {
  RuleTable table{RuleTable::Mode::kLinearScan};
  for (std::uint32_t i = 0; i < 10; ++i)
    (void)table.add_rule(PdrRule{i, 100 + i, 1, int(i)});
  const auto outcome = table.lookup(9999);
  EXPECT_FALSE(outcome.matched);
  EXPECT_EQ(outcome.scanned, 10u);
}

TEST(RuleTable, PrecedenceOrdersMatching) {
  RuleTable table{RuleTable::Mode::kLinearScan};
  (void)table.add_rule(PdrRule{1, 100, 1, /*precedence=*/5});
  (void)table.add_rule(PdrRule{2, 200, 1, /*precedence=*/1});
  // Rule 2 has better precedence: scanned first.
  const auto outcome = table.lookup(200);
  EXPECT_EQ(outcome.scanned, 1u);
}

TEST(RuleTable, LinearLookupCostGrowsWithPosition) {
  RuleTable table{RuleTable::Mode::kLinearScan};
  for (std::uint32_t i = 0; i < 1000; ++i)
    (void)table.add_rule(PdrRule{i, 100 + i, 1, int(i)});
  const auto front = table.lookup(100);
  const auto back = table.lookup(100 + 999);
  EXPECT_GT(back.latency.ns(), 5 * front.latency.ns());
}

TEST(RuleTable, ContextAwareHitIsFlat) {
  RuleTable table{RuleTable::Mode::kContextAware, 16};
  for (std::uint32_t i = 0; i < 1000; ++i)
    (void)table.add_rule(PdrRule{i, 100 + i, i / 3, int(i)});
  table.prioritise_flow(100 + 999);
  const auto hot = table.lookup(100 + 999);
  EXPECT_TRUE(hot.matched);
  EXPECT_EQ(hot.scanned, 1u);
  // Flat cost: independent of the rule's position in a 1000-entry table.
  RuleTable small{RuleTable::Mode::kContextAware, 16};
  (void)small.add_rule(PdrRule{1, 42, 1, 0});
  small.prioritise_flow(42);
  EXPECT_EQ(hot.latency.ns(), small.lookup(42).latency.ns());
}

TEST(RuleTable, ContextAwareMissPromotesFlow) {
  RuleTable table{RuleTable::Mode::kContextAware, 4};
  for (std::uint32_t i = 0; i < 100; ++i)
    (void)table.add_rule(PdrRule{i, 100 + i, 1, int(i)});
  const auto first = table.lookup(150);   // miss: full scan + promote
  const auto second = table.lookup(150);  // hot hit
  EXPECT_GT(first.latency.ns(), second.latency.ns());
  EXPECT_EQ(second.scanned, 1u);
}

TEST(RuleTable, HotCacheEvictsLru) {
  RuleTable table{RuleTable::Mode::kContextAware, 2};
  for (std::uint32_t i = 0; i < 3; ++i)
    (void)table.add_rule(PdrRule{i, 100 + i, 1, int(i)});
  table.prioritise_flow(100);
  table.prioritise_flow(101);
  table.prioritise_flow(102);  // evicts 100
  EXPECT_EQ(table.lookup(100).scanned, 1u);  // full scan finds it at pos 1
  // After the miss it is promoted again, so a second lookup is hot.
  EXPECT_EQ(table.lookup(100).latency.ns(),
            table.lookup(100).latency.ns());
}

TEST(RuleTable, MultipleFlowsPerUePrioritised) {
  RuleTable table{RuleTable::Mode::kContextAware, 8};
  // UE 7 has three concurrent flows (video, haptics, control).
  for (std::uint32_t i = 0; i < 3; ++i)
    (void)table.add_rule(PdrRule{i, 500 + i, /*ue=*/7, int(i)});
  (void)table.add_rule(PdrRule{10, 900, /*ue=*/8, 10});
  for (std::uint32_t i = 0; i < 3; ++i) table.prioritise_flow(500 + i);
  table.prioritise_flow(900);
  EXPECT_EQ(table.prioritised_ue_count(), 2u);
}

TEST(RuleTable, UpdateRuleCheaperWhenPrioritised) {
  RuleTable linear{RuleTable::Mode::kLinearScan};
  RuleTable ctx{RuleTable::Mode::kContextAware, 8};
  for (std::uint32_t i = 0; i < 500; ++i) {
    (void)linear.add_rule(PdrRule{i, 100 + i, 1, int(i)});
    (void)ctx.add_rule(PdrRule{i, 100 + i, 1, int(i)});
  }
  ctx.prioritise_flow(100 + 250);
  const auto linear_cost = linear.update_rule(250, 9999);
  const auto ctx_cost = ctx.update_rule(250, 9999);
  ASSERT_TRUE(linear_cost && ctx_cost);
  EXPECT_GT(linear_cost->ns(), 3 * ctx_cost->ns());
}

TEST(RuleTable, UpdateOfPrioritisedRuleKeepsPrecedenceOrder) {
  RuleTable table{RuleTable::Mode::kContextAware, 4};
  (void)table.add_rule(PdrRule{1, 100, 1, /*precedence=*/1});
  (void)table.add_rule(PdrRule{2, 200, 1, /*precedence=*/5});
  table.prioritise_flow(100);
  const auto cost = table.update_rule(1, 10);
  ASSERT_TRUE(cost.has_value());
  EXPECT_EQ(cost->ns(), RuleTable::CostModel{}.hot_update.ns());
  // Rule 1 now sorts after rule 2, so a scan for flow 200 stops first.
  EXPECT_EQ(table.lookup(200).scanned, 1u);
  // A later insert lands between them: order is 2 (5), 3 (7), 1 (10).
  (void)table.add_rule(PdrRule{3, 300, 1, /*precedence=*/7});
  EXPECT_EQ(table.lookup(300).scanned, 2u);
}

TEST(RuleTable, HitsAccounting) {
  RuleTable table{RuleTable::Mode::kLinearScan};
  (void)table.add_rule(PdrRule{1, 100, 1, 0});
  (void)table.lookup(100);
  (void)table.lookup(100);
  (void)table.lookup(200);  // miss
  // Repeated hits and a miss leave the rule matchable.
  EXPECT_TRUE(table.lookup(100).matched);
}

/// The rule table as a precedence-sorted vector scanned linearly, with an
/// MRU list for the hot cache: the reference RuleTable's index must match.
class ScanReference {
 public:
  ScanReference(RuleTable::Mode mode, std::uint32_t hot_capacity)
      : mode_(mode), hot_capacity_(hot_capacity) {}

  Duration add_rule(const PdrRule& rule) {
    (void)insert(rule);
    return costs_.update_base +
           costs_.per_rule_update * std::int64_t(rules_.size());
  }

  LookupOutcome lookup(std::uint64_t flow_key) {
    LookupOutcome out;
    if (context() && is_hot(flow_key)) {
      touch(flow_key);
      return {true, 1, costs_.hot_hit};
    }
    for (const PdrRule& r : rules_) {
      ++out.scanned;
      if (r.flow_key == flow_key) {
        out.matched = true;
        break;
      }
    }
    out.latency =
        costs_.lookup_base + costs_.per_rule * std::int64_t(out.scanned);
    if (context() && out.matched) {
      touch(flow_key);
      out.latency += costs_.hot_update;
    }
    return out;
  }

  std::optional<Duration> update_rule(std::uint32_t id, int precedence) {
    const auto it = std::find_if(rules_.begin(), rules_.end(),
                                 [id](const PdrRule& r) { return r.id == id; });
    if (it == rules_.end()) return std::nullopt;
    PdrRule moved = *it;
    moved.precedence = precedence;
    const auto from = it - rules_.begin();
    rules_.erase(it);
    const auto to = insert(moved);
    moved_earlier += to < from;
    moved_later += to > from;
    if (context() && is_hot(moved.flow_key)) return costs_.hot_update;
    return costs_.update_base +
           costs_.per_rule_update * std::int64_t(rules_.size());
  }

  void prioritise_flow(std::uint64_t flow_key) {
    if (context()) touch(flow_key);
  }

  [[nodiscard]] std::size_t prioritised_ue_count() const {
    std::unordered_set<std::uint32_t> ues;
    for (const std::uint64_t key : hot_) {
      const auto it =
          std::find_if(rules_.begin(), rules_.end(),
                       [key](const PdrRule& r) { return r.flow_key == key; });
      if (it != rules_.end()) ues.insert(it->ue_id);
    }
    return ues.size();
  }

  int moved_earlier = 0;
  int moved_later = 0;

 private:
  [[nodiscard]] bool context() const {
    return mode_ == RuleTable::Mode::kContextAware;
  }
  [[nodiscard]] bool is_hot(std::uint64_t flow_key) const {
    return std::find(hot_.begin(), hot_.end(), flow_key) != hot_.end();
  }
  std::ptrdiff_t insert(const PdrRule& rule) {
    const auto pos = std::find_if(rules_.begin(), rules_.end(),
                                  [&rule](const PdrRule& r) {
                                    return r.precedence > rule.precedence ||
                                           (r.precedence == rule.precedence &&
                                            r.id > rule.id);
                                  });
    const auto slot = pos - rules_.begin();
    rules_.insert(pos, rule);
    return slot;
  }
  void touch(std::uint64_t flow_key) {
    hot_.erase(std::remove(hot_.begin(), hot_.end(), flow_key), hot_.end());
    hot_.insert(hot_.begin(), flow_key);
    if (hot_.size() > hot_capacity_) hot_.resize(hot_capacity_);
  }

  RuleTable::Mode mode_;
  std::uint32_t hot_capacity_;
  RuleTable::CostModel costs_;
  std::vector<PdrRule> rules_;
  std::vector<std::uint64_t> hot_;
};

TEST(RuleTable, IndexMatchesReferenceScan) {
  // Keys repeat (1-30 distinct), two more keys never get a rule (misses,
  // and hot entries without a rule), and updates draw two ids that were
  // never installed and precedences that move rules both ways.
  int moved_earlier = 0;
  int moved_later = 0;
  int misses = 0;
  int unknown_updates = 0;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    for (const auto mode :
         {RuleTable::Mode::kLinearScan, RuleTable::Mode::kContextAware}) {
      SCOPED_TRACE(testing::Message()
                   << "seed " << seed << ", mode " << int(mode));
      Rng rng{seed};
      const auto capacity = 1 + std::uint32_t(rng.uniform_int(8));
      const auto keys = 1 + rng.uniform_int(30);
      RuleTable table{mode, capacity};
      ScanReference ref{mode, capacity};
      std::uint32_t next_id = 0;
      for (int step = 0; step < 200; ++step) {
        const std::uint64_t key = 100 + rng.uniform_int(keys + 2);
        switch (rng.uniform_int(4)) {
          case 0: {
            const PdrRule rule{next_id++, key,
                               std::uint32_t(rng.uniform_int(6)),
                               int(rng.uniform_int(40))};
            ASSERT_EQ(table.add_rule(rule).ns(), ref.add_rule(rule).ns());
            break;
          }
          case 1: {
            const auto id = std::uint32_t(rng.uniform_int(next_id + 2));
            const int precedence = int(rng.uniform_int(40));
            const auto got = table.update_rule(id, precedence);
            const auto want = ref.update_rule(id, precedence);
            ASSERT_EQ(got.has_value(), want.has_value()) << "id " << id;
            if (got) ASSERT_EQ(got->ns(), want->ns()) << "id " << id;
            unknown_updates += !want.has_value();
            break;
          }
          case 2:
            table.prioritise_flow(key);
            ref.prioritise_flow(key);
            break;
          default: {
            const auto got = table.lookup(key);
            const auto want = ref.lookup(key);
            ASSERT_EQ(got.matched, want.matched) << "key " << key;
            ASSERT_EQ(got.scanned, want.scanned) << "key " << key;
            ASSERT_EQ(got.latency.ns(), want.latency.ns()) << "key " << key;
            misses += !want.matched;
          }
        }
        ASSERT_EQ(table.prioritised_ue_count(), ref.prioritised_ue_count());
      }
      moved_earlier += ref.moved_earlier;
      moved_later += ref.moved_later;
    }
  }
  // The walk reached every case the index has to keep current.
  EXPECT_GT(moved_earlier, 100);
  EXPECT_GT(moved_later, 100);
  EXPECT_GT(misses, 100);
  EXPECT_GT(unknown_updates, 100);
}

// ---------------------------------------------------------------- Upf

TEST(Upf, SmartNicFactorsMatchJainEtAl) {
  Upf host{Upf::Config{}};
  Upf nic{Upf::Config{.datapath = UpfDatapath::kSmartNic}};
  EXPECT_DOUBLE_EQ(
      host.mean_pipeline_latency().us() / nic.mean_pipeline_latency().us(),
      3.75);
  EXPECT_DOUBLE_EQ(nic.max_throughput_mpps() / host.max_throughput_mpps(),
                   2.0);
}

TEST(Upf, PacketLatencySampling) {
  Upf upf{Upf::Config{}};
  (void)upf.rules().add_rule(PdrRule{1, 42, 1, 0});
  Rng rng{4};
  stats::Summary s;
  for (int i = 0; i < 50000; ++i)
    s.add(upf.sample_packet_latency(42, rng).us());
  // Mean pipeline ~9 us (lognormal mean slightly above the median) plus
  // lookup and queueing.
  EXPECT_GT(s.mean(), 8.0);
  EXPECT_LT(s.mean(), 20.0);
}

// ---------------------------------------------------------------- placement

class PlacementFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topo::EuropeOptions options;
    options.local_breakout = true;
    world_ = new topo::EuropeTopology(topo::build_europe(options));
    study_ = new UpfPlacementStudy(*world_);
    rows_ = new std::vector<PlacementResult>(study_->sweep());
  }
  static void TearDownTestSuite() {
    delete rows_;
    delete study_;
    delete world_;
    rows_ = nullptr;
    study_ = nullptr;
    world_ = nullptr;
  }
  static const PlacementResult& row(UpfPlacement p, const std::string& acc) {
    for (const auto& r : *rows_)
      if (r.placement == p && r.access_profile == acc) return r;
    ADD_FAILURE() << "row not found";
    return rows_->front();
  }
  static topo::EuropeTopology* world_;
  static UpfPlacementStudy* study_;
  static std::vector<PlacementResult>* rows_;
};

topo::EuropeTopology* PlacementFixture::world_ = nullptr;
UpfPlacementStudy* PlacementFixture::study_ = nullptr;
std::vector<PlacementResult>* PlacementFixture::rows_ = nullptr;

TEST_F(PlacementFixture, BaselineExceeds62Ms) {
  EXPECT_GT(row(UpfPlacement::kNone, "5G-NSA").mean_rtt_ms, 55.0);
}

TEST_F(PlacementFixture, CloserAnchorsAreFaster) {
  for (const std::string acc : {"5G-NSA", "5G-SA-URLLC", "6G"}) {
    EXPECT_GT(row(UpfPlacement::kCloud, acc).mean_rtt_ms,
              row(UpfPlacement::kMetro, acc).mean_rtt_ms)
        << acc;
    EXPECT_GT(row(UpfPlacement::kMetro, acc).mean_rtt_ms,
              row(UpfPlacement::kEdge, acc).mean_rtt_ms)
        << acc;
  }
}

TEST_F(PlacementFixture, EdgeWithCapable5GHitsPaperBand) {
  // Barrachina/Goshi: 5-6.2 ms. Our edge..metro bracket spans that band.
  const double edge = row(UpfPlacement::kEdge, "5G-SA-URLLC").mean_rtt_ms;
  const double metro = row(UpfPlacement::kMetro, "5G-SA-URLLC").mean_rtt_ms;
  EXPECT_LT(edge, 6.2);
  EXPECT_GT(metro, 5.0);
}

TEST_F(PlacementFixture, ReductionReaches90Percent) {
  const double baseline = row(UpfPlacement::kNone, "5G-NSA").mean_rtt_ms;
  const double edge_sa = row(UpfPlacement::kEdge, "5G-SA-URLLC").mean_rtt_ms;
  EXPECT_GT(1.0 - edge_sa / baseline, 0.88);
}

TEST_F(PlacementFixture, SixGEdgeApproachesSubMillisecond) {
  EXPECT_LT(row(UpfPlacement::kEdge, "6G").mean_rtt_ms, 2.0);
}

// ---------------------------------------------------------------- session

TEST(SessionSetup, ConvergedEdgeIsFasterAndLeaner) {
  const SessionSetupModel model{ControlPlaneSites{}};
  Rng rng{6};
  stats::Summary conv;
  stats::Summary edge;
  std::uint32_t conv_msgs = 0;
  std::uint32_t edge_msgs = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto c = model.conventional(rng);
    const auto e = model.converged_edge(rng);
    conv.add(c.total.ms());
    edge.add(e.total.ms());
    conv_msgs = c.messages;
    edge_msgs = e.messages;
  }
  EXPECT_GT(conv.mean(), 1.5 * edge.mean());
  EXPECT_GT(conv_msgs, edge_msgs);
}

TEST(SessionSetup, BreakdownSumsToTotal) {
  const SessionSetupModel model{ControlPlaneSites{}};
  Rng rng{7};
  const auto b = model.conventional(rng);
  const Duration sum = b.transport + b.processing + b.overhead;
  EXPECT_EQ(sum.ns(), b.total.ns());
  EXPECT_EQ(b.messages, 17u);
}

TEST(SessionSetup, SbiOverheadOnlyOnServiceInterfaces) {
  ControlPlaneSites sites;
  sites.sbi_overhead = Duration::from_millis_f(50.0);  // exaggerate
  const SessionSetupModel model{sites};
  Rng rng{8};
  const auto conv = model.conventional(rng);
  const auto edge = model.converged_edge(rng);
  EXPECT_GT(conv.overhead.ms(), 100.0);  // 5 SBI messages
  EXPECT_DOUBLE_EQ(edge.overhead.ms(), 0.0);  // binary edge interfaces
}

// ---------------------------------------------------------------- selector

TEST(Selector, CriticalFlowsGoToEdgeUntilFull) {
  // One-unit flows: the edge takes kEdgeCapacityUnits of them.
  const auto edge_slots =
      std::uint64_t(DynamicUpfSelector::kEdgeCapacityUnits);
  DynamicUpfSelector selector;
  std::vector<FlowRequest> flows;
  for (std::uint64_t i = 0; i < edge_slots + 3; ++i)
    flows.push_back(FlowRequest{i, FlowClass::kLatencyCritical, 1.0});
  const auto assignments = selector.assign(flows);
  EXPECT_EQ(assignments[0].anchor, UpfPlacement::kEdge);
  EXPECT_EQ(assignments[edge_slots - 1].anchor, UpfPlacement::kEdge);
  EXPECT_DOUBLE_EQ(selector.edge_capacity_left(), 0.0);
  // Edge full: graceful degradation to metro, never cloud for critical.
  EXPECT_EQ(assignments[edge_slots].anchor, UpfPlacement::kMetro);
  EXPECT_EQ(assignments[edge_slots + 2].anchor, UpfPlacement::kMetro);
}

TEST(Selector, BulkStaysInCloud) {
  DynamicUpfSelector selector;
  const auto assignments = selector.assign(
      {FlowRequest{1, FlowClass::kBulk, 1.0}});
  EXPECT_EQ(assignments[0].anchor, UpfPlacement::kCloud);
}

TEST(Selector, SynthesizedMixMatchesShares) {
  Rng rng{9};
  const auto flows = synthesize_flows(10000, 0.2, 0.3, rng);
  int critical = 0;
  int interactive = 0;
  for (const auto& f : flows) {
    if (f.flow_class == FlowClass::kLatencyCritical) ++critical;
    if (f.flow_class == FlowClass::kInteractive) ++interactive;
  }
  EXPECT_NEAR(critical / 10000.0, 0.2, 0.02);
  EXPECT_NEAR(interactive / 10000.0, 0.3, 0.02);
}

}  // namespace
}  // namespace sixg::core5g
