#include <gtest/gtest.h>

#include "topo/backbone.hpp"

namespace sixg {
namespace {

// ------------------------------------------------------ failure injection

TEST(FailureInjection, Tier1PeerCutPartitionsTheBackbone) {
  topo::Backbone backbone = topo::build_backbone(1);
  // Stubs homed west vs east communicate across the tier-1 peering; cut
  // it and single-homed pairs on opposite sides lose connectivity.
  const auto t1_view = backbone.net.links_of(
      *backbone.net.find_node("t1-fra"));
  const std::vector<topo::LinkId> t1_links(t1_view.begin(), t1_view.end());
  for (const auto link : t1_links) {
    if (backbone.net.link(link).relation == topo::LinkRelation::kPeer)
      backbone.net.remove_link(link);
  }
  int unreachable = 0;
  int total = 0;
  for (std::size_t i = 0; i < backbone.stub_hosts.size(); ++i) {
    for (std::size_t j = i + 1; j < backbone.stub_hosts.size(); ++j) {
      ++total;
      if (!backbone.net
               .find_path(backbone.stub_hosts[i], backbone.stub_hosts[j])
               .valid())
        ++unreachable;
    }
  }
  EXPECT_GT(unreachable, 0);
  EXPECT_LT(unreachable, total);  // same-side pairs keep working
}

TEST(FailureInjection, MultiHomedIspsSurviveOneTransitLoss) {
  topo::Backbone backbone = topo::build_backbone(1);
  // Every third regional ISP is multi-homed; removing one of its transit
  // links must leave it reachable from both tier-1s.
  const std::size_t multihomed_index = 2;  // regional.size()%3==0 at build
  const topo::NodeId core = backbone.regional_core[multihomed_index];
  const auto links = backbone.net.links_of(core);
  std::vector<topo::LinkId> transits;
  for (const auto link : links) {
    const auto& l = backbone.net.link(link);
    // Transit = links where the ISP core is the *customer* side.
    const bool customer_side =
        (l.a == core && l.relation == topo::LinkRelation::kCustomerOfB) ||
        (l.b == core && l.relation == topo::LinkRelation::kProviderOfB);
    if (customer_side) transits.push_back(link);
  }
  ASSERT_EQ(transits.size(), 2u);
  backbone.net.remove_link(transits.front());
  const auto t1_west = *backbone.net.find_node("t1-fra");
  const auto t1_east = *backbone.net.find_node("t1-vie");
  EXPECT_TRUE(backbone.net.find_path(t1_west, core).valid());
  EXPECT_TRUE(backbone.net.find_path(t1_east, core).valid());
}

}  // namespace
}  // namespace sixg
