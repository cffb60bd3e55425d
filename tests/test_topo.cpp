#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "geo/coords.hpp"
#include "measurement/ping.hpp"
#include "stats/summary.hpp"
#include "topo/compiled_path.hpp"
#include "topo/europe.hpp"
#include "topo/network.hpp"
#include "topo/traceroute.hpp"

namespace sixg::topo {
namespace {

using namespace sixg::literals;

/// Small hand-built internet for routing-policy tests:
///
///        T1 ---peer--- T2
///        /  \            \
///      R1    R2           R3          (customers of T1/T1/T2)
///      /       \            \
///    S1         S2           S3       (stubs)
struct MiniInternet {
  Network net;
  AsId t1, t2, r1, r2, r3, s1, s2, s3;
  NodeId n_t1, n_t2, n_r1, n_r2, n_r3, n_s1, n_s2, n_s3;

  MiniInternet() {
    t1 = net.add_as(100, "T1");
    t2 = net.add_as(200, "T2");
    r1 = net.add_as(310, "R1");
    r2 = net.add_as(320, "R2");
    r3 = net.add_as(330, "R3");
    s1 = net.add_as(410, "S1");
    s2 = net.add_as(420, "S2");
    s3 = net.add_as(430, "S3");

    const geo::LatLon pos{47.0, 15.0};
    const auto mk = [&](const char* name, AsId as) {
      return net.add_node(name, name, NodeKind::kRouter, as, pos);
    };
    n_t1 = mk("t1", t1);
    n_t2 = mk("t2", t2);
    n_r1 = mk("r1", r1);
    n_r2 = mk("r2", r2);
    n_r3 = mk("r3", r3);
    n_s1 = mk("s1", s1);
    n_s2 = mk("s2", s2);
    n_s3 = mk("s3", s3);

    net.add_link(n_t1, n_t2, LinkRelation::kPeer);
    net.add_link(n_r1, n_t1, LinkRelation::kCustomerOfB);
    net.add_link(n_r2, n_t1, LinkRelation::kCustomerOfB);
    net.add_link(n_r3, n_t2, LinkRelation::kCustomerOfB);
    net.add_link(n_s1, n_r1, LinkRelation::kCustomerOfB);
    net.add_link(n_s2, n_r2, LinkRelation::kCustomerOfB);
    net.add_link(n_s3, n_r3, LinkRelation::kCustomerOfB);
  }
};

// ------------------------------------------------------------ construction

TEST(Network, NodeAndLinkAccessors) {
  MiniInternet mini;
  EXPECT_EQ(mini.net.as_count(), 8u);
  EXPECT_EQ(mini.net.node_count(), 8u);
  EXPECT_EQ(mini.net.link_count(), 7u);
  EXPECT_EQ(mini.net.node(mini.n_t1).name, "t1");
  EXPECT_TRUE(mini.net.find_node("s3").has_value());
  EXPECT_FALSE(mini.net.find_node("nope").has_value());
}

TEST(Network, PeerOfReturnsOtherEndpoint) {
  MiniInternet mini;
  const auto links = mini.net.links_of(mini.n_s1);
  ASSERT_EQ(links.size(), 1u);
  EXPECT_EQ(mini.net.peer_of(links[0], mini.n_s1), mini.n_r1);
  EXPECT_EQ(mini.net.peer_of(links[0], mini.n_r1), mini.n_s1);
}

TEST(Network, LinkLengthFromGeometry) {
  Network net;
  const AsId as = net.add_as(1, "A");
  const NodeId a = net.add_node("a", "a", NodeKind::kRouter, as,
                                {46.6247, 14.3053});
  const NodeId b = net.add_node("b", "b", NodeKind::kRouter, as,
                                {48.2082, 16.3738});
  const LinkId l = net.add_link(a, b, LinkRelation::kIntraAs);
  EXPECT_NEAR(net.link(l).length_km, 234.0, 5.0);
  // Propagation ~ 5 us/km.
  EXPECT_NEAR(net.link(l).propagation().us(), 234.0 * 4.9, 60.0);
}

// ------------------------------------------------------------ policy routing

TEST(PolicyRouting, CustomerRoutePreferredOverPeerAndProvider) {
  MiniInternet mini;
  // From R1's perspective, S1 is a customer route.
  const auto routes = mini.net.compute_as_routes_to(mini.s1);
  EXPECT_EQ(routes[mini.r1.value()].source, RouteSource::kCustomer);
  EXPECT_EQ(routes[mini.t1.value()].source, RouteSource::kCustomer);
  // T2 reaches S1 via its peer T1.
  EXPECT_EQ(routes[mini.t2.value()].source, RouteSource::kPeer);
  // R2 must go up through its provider.
  EXPECT_EQ(routes[mini.r2.value()].source, RouteSource::kProvider);
}

TEST(PolicyRouting, ValleyFreePathShape) {
  MiniInternet mini;
  // S2 -> S3 must climb to T1, cross the single peer edge, and descend:
  // S2 R2 T1 T2 R3 S3.
  const auto path = mini.net.as_path(mini.s2, mini.s3);
  ASSERT_EQ(path.size(), 6u);
  EXPECT_EQ(path[0], mini.s2);
  EXPECT_EQ(path[1], mini.r2);
  EXPECT_EQ(path[2], mini.t1);
  EXPECT_EQ(path[3], mini.t2);
  EXPECT_EQ(path[4], mini.r3);
  EXPECT_EQ(path[5], mini.s3);
}

TEST(PolicyRouting, NoTransitThroughPeersOfPeers) {
  // Without a provider for T1/T2 the only S1->S3 route crosses the peer
  // edge once — allowed. But two stubs under *different* peers of a
  // middle AS must not transit: remove the peer edge and connectivity
  // dies.
  MiniInternet mini;
  // links_of returns a span over the adjacency list; snapshot before
  // mutating (remove_link invalidates the view).
  const auto t1t2_view = mini.net.links_of(mini.n_t1);
  const std::vector<LinkId> t1t2(t1t2_view.begin(), t1t2_view.end());
  for (const LinkId l : t1t2) {
    if (mini.net.link(l).relation == LinkRelation::kPeer)
      mini.net.remove_link(l);
  }
  EXPECT_TRUE(mini.net.as_path(mini.s1, mini.s3).empty());
  // Within T1's customer cone routing still works.
  EXPECT_FALSE(mini.net.as_path(mini.s1, mini.s2).empty());
}

TEST(PolicyRouting, SelfRouteIsTrivial) {
  MiniInternet mini;
  const auto path = mini.net.as_path(mini.s1, mini.s1);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], mini.s1);
}

TEST(PolicyRouting, PrefersShorterAmongSameClass) {
  // Two provider chains to the same destination; the shorter must win.
  Network net;
  const AsId top = net.add_as(1, "top");
  const AsId mid = net.add_as(2, "mid");
  const AsId src = net.add_as(3, "src");
  const AsId dst = net.add_as(4, "dst");
  const geo::LatLon pos{47.0, 15.0};
  const auto mk = [&](const char* n, AsId a) {
    return net.add_node(n, n, NodeKind::kRouter, a, pos);
  };
  const NodeId n_top = mk("top", top);
  const NodeId n_mid = mk("mid", mid);
  const NodeId n_src = mk("src", src);
  const NodeId n_dst = mk("dst", dst);
  // dst is customer of top; src customer of top (2 hops via top) and of
  // mid, where mid is customer of top (3 hops via mid).
  net.add_link(n_dst, n_top, LinkRelation::kCustomerOfB);
  net.add_link(n_src, n_top, LinkRelation::kCustomerOfB);
  net.add_link(n_src, n_mid, LinkRelation::kCustomerOfB);
  net.add_link(n_mid, n_top, LinkRelation::kCustomerOfB);
  const auto path = net.as_path(src, dst);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[1], top);
}

// ------------------------------------------------------------ router paths

TEST(RouterPath, IntraAsShortestLatency) {
  Network net;
  const AsId as = net.add_as(1, "A");
  const geo::LatLon pos{47.0, 15.0};
  const auto mk = [&](const char* n) {
    return net.add_node(n, n, NodeKind::kRouter, as, pos);
  };
  const NodeId a = mk("a");
  const NodeId b = mk("b");
  const NodeId c = mk("c");
  // Direct a-c is slow (extra latency); a-b-c is fast.
  Network::LinkOptions slow;
  slow.extra_latency = 10_ms;
  net.add_link(a, c, LinkRelation::kIntraAs, slow);
  net.add_link(a, b, LinkRelation::kIntraAs);
  net.add_link(b, c, LinkRelation::kIntraAs);
  const Path path = net.find_path(a, c);
  ASSERT_EQ(path.nodes.size(), 3u);
  EXPECT_EQ(path.nodes[1], b);
}

TEST(RouterPath, SelfPathIsEmpty) {
  MiniInternet mini;
  const Path p = mini.net.find_path(mini.n_s1, mini.n_s1);
  EXPECT_TRUE(p.valid());
  EXPECT_EQ(p.hop_count(), 0u);
}

TEST(RouterPath, FollowsAsPath) {
  MiniInternet mini;
  const Path p = mini.net.find_path(mini.n_s2, mini.n_s3);
  ASSERT_TRUE(p.valid());
  EXPECT_EQ(p.hop_count(), 5u);
  EXPECT_EQ(p.nodes.front(), mini.n_s2);
  EXPECT_EQ(p.nodes.back(), mini.n_s3);
  EXPECT_GT(p.base_one_way.ns(), 0);
}

TEST(RouterPath, UnreachableIsInvalid) {
  Network net;
  const AsId a = net.add_as(1, "a");
  const AsId b = net.add_as(2, "b");
  const NodeId na =
      net.add_node("a", "a", NodeKind::kHost, a, {47.0, 15.0});
  const NodeId nb =
      net.add_node("b", "b", NodeKind::kHost, b, {47.0, 15.1});
  const Path p = net.find_path(na, nb);
  EXPECT_FALSE(p.valid());
}

TEST(RouterPath, SampleRttAtLeastBase) {
  MiniInternet mini;
  const Path p = mini.net.find_path(mini.n_s1, mini.n_s3);
  ASSERT_TRUE(p.valid());
  Rng rng{5};
  for (int i = 0; i < 200; ++i) {
    const Duration rtt = mini.net.sample_rtt(p, rng);
    EXPECT_GE(rtt.ns(), 2 * p.base_one_way.ns());
  }
}

// --------------------------------------------------------- compiled paths

/// Chain of `hops` intra-AS links with varied utilisation (including a
/// zero-load and a near-saturated link for parameter edge cases).
Network chain_net(int hops) {
  Network net;
  const AsId as = net.add_as(1, "chain");
  std::vector<NodeId> nodes;
  const geo::LatLon base{46.6, 14.3};
  for (int i = 0; i <= hops; ++i) {
    nodes.push_back(net.add_node("c" + std::to_string(i),
                                 "ip" + std::to_string(i), NodeKind::kRouter,
                                 as,
                                 {base.lat_deg + 0.02 * double(i),
                                  base.lon_deg}));
  }
  for (int i = 0; i < hops; ++i) {
    Network::LinkOptions options;
    options.utilization =
        (i == 0) ? 0.0 : (i == 1 ? 0.997 : 0.1 + 0.07 * double(i % 11));
    net.add_link(nodes[std::size_t(i)], nodes[std::size_t(i) + 1],
                 LinkRelation::kIntraAs, options);
  }
  return net;
}

// The determinism contract of the compile/sample split: for every hop
// count 0..12 and 16 seeds, CompiledPath::sample_rtt consumes the RNG
// exactly like Network::sample_rtt and returns the identical Duration.
// 200 draws per (hops, seed) pair make the 2 % spike branch fire
// thousands of times across the sweep.
TEST(CompiledPath, ByteMatchesNetworkSamplerAcrossSeedsAndHopCounts) {
  for (int hops = 0; hops <= 12; ++hops) {
    const Network net = chain_net(hops);
    const Path path =
        net.find_path(NodeId{0}, NodeId{std::uint32_t(hops)});
    ASSERT_TRUE(path.valid());
    const CompiledPath compiled = net.compile(path);
    ASSERT_EQ(compiled.hop_count(), std::size_t(hops));
    EXPECT_EQ(compiled.base_one_way().ns(), path.base_one_way.ns());
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      Rng rng_ref{seed * 977};
      Rng rng_cmp{seed * 977};
      for (int draw = 0; draw < 200; ++draw) {
        const Duration ref = net.sample_rtt(path, rng_ref);
        const Duration cmp = compiled.sample_rtt(rng_cmp);
        ASSERT_EQ(ref.ns(), cmp.ns())
            << "hops=" << hops << " seed=" << seed << " draw=" << draw;
      }
      // Same RNG state out: the next raw draws agree.
      for (int i = 0; i < 4; ++i) ASSERT_EQ(rng_ref(), rng_cmp());
    }
  }
}

// The 2 % spike branch consumes an extra magnitude draw; a shadow RNG
// replaying the documented draw contract must (a) fire spikes during the
// sweep and (b) land on exactly the same stream position as the real
// sampler — proving the branch executed and consumed draws correctly.
TEST(CompiledPath, SpikeBranchFiresAndConsumesDraws) {
  const Network net = chain_net(12);
  const Path path = net.find_path(NodeId{0}, NodeId{12});
  const CompiledPath compiled = net.compile(path);
  Rng shadow{977};
  Rng actual{977};
  std::uint64_t spikes = 0;
  for (int draw = 0; draw < 200; ++draw) {
    for (int dir = 0; dir < 2; ++dir) {
      for (std::size_t h = 0; h < path.links.size(); ++h) {
        (void)shadow.uniform();  // queueing draw
        if (shadow.chance(0.02)) {
          ++spikes;
          (void)shadow.uniform();  // spike magnitude draw
        }
      }
    }
    (void)compiled.sample_rtt(actual);
  }
  EXPECT_GT(spikes, 0u);
  EXPECT_EQ(shadow(), actual());
}

TEST(CompiledPath, OneWayByteMatchesNetworkSampler) {
  const Network net = chain_net(6);
  const Path path = net.find_path(NodeId{0}, NodeId{6});
  const CompiledPath compiled = net.compile(path);
  for (std::uint64_t seed : {7u, 1234u, 999999u}) {
    Rng a{seed};
    Rng b{seed};
    for (int i = 0; i < 500; ++i)
      ASSERT_EQ(net.sample_one_way(path, a).ns(),
                compiled.sample_one_way(b).ns());
    ASSERT_EQ(a(), b());
  }
}

TEST(CompiledPath, HopQueueingByteMatchesNetworkSampler) {
  const Network net = chain_net(5);
  const Path path = net.find_path(NodeId{0}, NodeId{5});
  const CompiledPath compiled = net.compile(path);
  Rng a{42};
  Rng b{42};
  for (int round = 0; round < 300; ++round) {
    for (std::size_t h = 0; h < compiled.hop_count(); ++h)
      ASSERT_EQ(net.sample_queueing(path.links[h], a).ns(),
                compiled.sample_hop_queueing(h, b).ns());
  }
  EXPECT_EQ(a(), b());
}

TEST(CompiledPath, BatchMatchesSerialDraws) {
  const Network net = chain_net(8);
  const CompiledPath compiled =
      net.compile(net.find_path(NodeId{0}, NodeId{8}));
  Rng serial{31337};
  Rng batched{31337};
  std::vector<double> serial_ms(257);
  for (double& ms : serial_ms) ms = compiled.sample_rtt(serial).ms();
  std::vector<double> batch_ms(257);  // odd size: exercises any chunking
  compiled.sample_rtt_into(batch_ms, batched);
  for (std::size_t i = 0; i < serial_ms.size(); ++i)
    ASSERT_EQ(serial_ms[i], batch_ms[i]);
  EXPECT_EQ(serial(), batched());
}

TEST(CompiledPath, TrivialAndInvalidPaths) {
  const Network net = chain_net(3);
  // Self-path: zero hops, zero latency, still valid.
  const CompiledPath self = net.compile(net.find_path(NodeId{1}, NodeId{1}));
  EXPECT_TRUE(self.valid());
  EXPECT_EQ(self.hop_count(), 0u);
  Rng rng{1};
  EXPECT_EQ(self.sample_rtt(rng).ns(), 0);
  // Invalid path compiles to an invalid CompiledPath.
  const CompiledPath invalid = net.compile(Path{});
  EXPECT_FALSE(invalid.valid());
}

TEST(CompiledPath, PingMeasurementUsesCompiledPath) {
  MiniInternet mini;
  // PingMeasurement::run must equal hand-rolled Network::sample_rtt
  // draws (wired case goes through the batched compiled sampler).
  const Path path = mini.net.find_path(mini.n_s1, mini.n_s3);
  Rng ref_rng{99};
  stats::Summary ref;
  for (int i = 0; i < 500; ++i)
    ref.add(mini.net.sample_rtt(path, ref_rng).ms());

  const meas::PingMeasurement ping{mini.net, mini.n_s1, mini.n_s3};
  Rng rng{99};
  const auto result = ping.run(500, rng);
  EXPECT_EQ(ref.count(), result.summary_ms.count());
  EXPECT_EQ(ref.mean(), result.summary_ms.mean());
  EXPECT_EQ(ref.stddev(), result.summary_ms.stddev());
}

// ------------------------------------------------------ routing after mutation
// Routing computes on every query; these pin that the next query after a
// mutation sees it.

TEST(RouteCache, RemoveLinkInvalidatesMemoizedPath) {
  // Two parallel intra-AS routes: a fast direct link and a slow detour.
  Network net;
  const AsId as = net.add_as(1, "A");
  const geo::LatLon pos{47.0, 15.0};
  const auto mk = [&](const char* n) {
    return net.add_node(n, n, NodeKind::kRouter, as, pos);
  };
  const NodeId a = mk("a");
  const NodeId b = mk("b");
  const NodeId c = mk("c");
  Network::LinkOptions slow;
  slow.extra_latency = 10_ms;
  net.add_link(a, b, LinkRelation::kIntraAs, slow);
  net.add_link(b, c, LinkRelation::kIntraAs, slow);
  const LinkId fast = net.add_link(a, c, LinkRelation::kIntraAs);

  // Query twice before mutating: repeated queries agree.
  const Path before = net.find_path(a, c);
  ASSERT_EQ(before.hop_count(), 1u);
  ASSERT_EQ(net.find_path(a, c).hop_count(), 1u);

  // Cut the fast link: the next query must take the detour.
  net.remove_link(fast);
  const Path after = net.find_path(a, c);
  ASSERT_TRUE(after.valid());
  EXPECT_EQ(after.hop_count(), 2u);
  EXPECT_EQ(after.nodes[1], b);

  // Add a fast link back: the next query must also see additions.
  net.add_link(a, c, LinkRelation::kIntraAs);
  EXPECT_EQ(net.find_path(a, c).hop_count(), 1u);
}

TEST(RouteCache, RemoveLinkInvalidatesAsRouteMemo) {
  MiniInternet mini;
  // Route towards S3's AS, then cut the only peer edge: the re-query
  // must see unreachability, not the earlier route.
  ASSERT_FALSE(mini.net.as_path(mini.s1, mini.s3).empty());
  const auto view = mini.net.links_of(mini.n_t1);
  const std::vector<LinkId> t1_links(view.begin(), view.end());
  for (const LinkId l : t1_links)
    if (mini.net.link(l).relation == LinkRelation::kPeer)
      mini.net.remove_link(l);
  EXPECT_TRUE(mini.net.as_path(mini.s1, mini.s3).empty());
}

TEST(RouteCache, LinksOfSpanTracksMutation) {
  MiniInternet mini;
  const auto before = mini.net.links_of(mini.n_s1);
  ASSERT_EQ(before.size(), 1u);
  const LinkId only = before[0];
  mini.net.remove_link(only);
  EXPECT_EQ(mini.net.links_of(mini.n_s1).size(), 0u);
}

TEST(RouteCache, RestoreLinkRevivesSameIdAndInvalidatesMemo) {
  // The fault-injector repair path: remove_link then restore_link on the
  // SAME LinkId. Neither the detour nor a stale links_of view may
  // survive the repair.
  Network net;
  const AsId as = net.add_as(1, "A");
  const geo::LatLon pos{47.0, 15.0};
  const auto mk = [&](const char* n) {
    return net.add_node(n, n, NodeKind::kRouter, as, pos);
  };
  const NodeId a = mk("a");
  const NodeId b = mk("b");
  const NodeId c = mk("c");
  Network::LinkOptions slow;
  slow.extra_latency = 10_ms;
  net.add_link(a, b, LinkRelation::kIntraAs, slow);
  net.add_link(b, c, LinkRelation::kIntraAs, slow);
  const LinkId fast = net.add_link(a, c, LinkRelation::kIntraAs);

  ASSERT_EQ(net.find_path(a, c).hop_count(), 1u);
  ASSERT_TRUE(net.link_alive(fast));

  net.remove_link(fast);
  EXPECT_FALSE(net.link_alive(fast));
  // Route the detour before the repair.
  ASSERT_EQ(net.find_path(a, c).hop_count(), 2u);
  ASSERT_EQ(net.find_path(a, c).hop_count(), 2u);
  const auto during = net.links_of(a);
  EXPECT_EQ(during.size(), 1u);  // only a-b

  net.restore_link(fast);
  EXPECT_TRUE(net.link_alive(fast));
  // Same id is back: links_of must include it again and the detour
  // must be gone.
  const auto after = net.links_of(a);
  EXPECT_EQ(after.size(), 2u);
  const Path repaired = net.find_path(a, c);
  EXPECT_EQ(repaired.hop_count(), 1u);
  EXPECT_EQ(repaired.links[0], fast);
}

TEST(RouteCache, RestoreLinkInvalidatesAsRouteMemo) {
  // Fail-and-repair of the only inter-AS peer edge: AS routing must flip
  // unreachable -> reachable across the restore, not serve the
  // failure-time table.
  MiniInternet mini;
  ASSERT_FALSE(mini.net.as_path(mini.s1, mini.s3).empty());
  const auto view = mini.net.links_of(mini.n_t1);
  const std::vector<LinkId> t1_links(view.begin(), view.end());
  std::vector<LinkId> cut;
  for (const LinkId l : t1_links)
    if (mini.net.link(l).relation == LinkRelation::kPeer) {
      mini.net.remove_link(l);
      cut.push_back(l);
    }
  ASSERT_FALSE(cut.empty());
  // Route on the failed topology.
  ASSERT_TRUE(mini.net.as_path(mini.s1, mini.s3).empty());
  for (const LinkId l : cut) mini.net.restore_link(l);
  EXPECT_FALSE(mini.net.as_path(mini.s1, mini.s3).empty());
}

TEST(Network, RemoveLinkTwiceAborts) {
  MiniInternet mini;
  const LinkId l = mini.net.links_of(mini.n_s1)[0];
  mini.net.remove_link(l);
  EXPECT_DEATH(mini.net.remove_link(l), "already removed");
}

TEST(Network, RestoreKeepsParallelLinkTieBreak) {
  // Two equal-cost parallel links: the lower LinkId wins the tie, and a
  // cut-and-repair of it must give the tie back.
  Network net;
  const AsId as = net.add_as(1, "A");
  const geo::LatLon pos{47.0, 15.0};
  const NodeId a = net.add_node("a", "a", NodeKind::kRouter, as, pos);
  const NodeId b = net.add_node("b", "b", NodeKind::kRouter, as, pos);
  const LinkId first = net.add_link(a, b, LinkRelation::kIntraAs);
  const LinkId second = net.add_link(a, b, LinkRelation::kIntraAs);
  ASSERT_LT(first, second);

  EXPECT_EQ(net.find_path(a, b).links, std::vector<LinkId>{first});
  net.remove_link(first);
  EXPECT_EQ(net.find_path(a, b).links, std::vector<LinkId>{second});
  net.restore_link(first);
  EXPECT_EQ(net.find_path(a, b).links, std::vector<LinkId>{first});
  const auto links = net.links_of(a);
  EXPECT_EQ(std::vector<LinkId>(links.begin(), links.end()),
            (std::vector<LinkId>{first, second}));
}

// ------------------------------------------------------------ Europe world

class EuropeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new EuropeTopology(build_europe());
    EuropeOptions options;
    options.local_breakout = true;
    options.local_peering = true;
    peered_ = new EuropeTopology(build_europe(options));
  }
  static void TearDownTestSuite() {
    delete world_;
    delete peered_;
    world_ = nullptr;
    peered_ = nullptr;
  }
  static const EuropeTopology* world_;
  static const EuropeTopology* peered_;
};

const EuropeTopology* EuropeFixture::world_ = nullptr;
const EuropeTopology* EuropeFixture::peered_ = nullptr;

TEST_F(EuropeFixture, TableOneHopCount) {
  const Path p =
      world_->net.find_path(world_->mobile_ue, world_->university_probe);
  ASSERT_TRUE(p.valid());
  EXPECT_EQ(p.hop_count(), 10u);  // the paper's Table I
}

TEST_F(EuropeFixture, TableOneHopNames) {
  Rng rng{1};
  const auto trace = traceroute(world_->net, world_->mobile_ue,
                                world_->university_probe, rng);
  ASSERT_EQ(trace.hop_count(), 10u);
  EXPECT_EQ(trace.hops[0].display, "10.12.128.1");
  EXPECT_NE(trace.hops[1].display.find("datapacket.com"), std::string::npos);
  EXPECT_NE(trace.hops[2].display.find("cdn77.com"), std::string::npos);
  EXPECT_NE(trace.hops[3].display.find("peering.cz"), std::string::npos);
  EXPECT_NE(trace.hops[6].display.find("as39912.net"), std::string::npos);
  EXPECT_NE(trace.hops[8].display.find("ascus.at"), std::string::npos);
  EXPECT_EQ(trace.hops[9].display, "195.140.139.133");
}

TEST_F(EuropeFixture, DetourDistanceMatchesPaperScale) {
  const Path p =
      world_->net.find_path(world_->mobile_ue, world_->university_probe);
  // Paper: 2544 km. Our geography gives the same continental detour.
  EXPECT_GT(p.distance_km, 2300.0);
  EXPECT_LT(p.distance_km, 2900.0);
}

TEST_F(EuropeFixture, EndpointsAreLocallyClose) {
  const double straight =
      geo::distance_km(world_->net.node(world_->mobile_ue).position,
                       world_->net.node(world_->university_probe).position);
  EXPECT_LT(straight, 5.0);  // "separated by less than 5 km"
}

TEST_F(EuropeFixture, AsPathIsValleyFree) {
  const auto path = world_->net.as_path(
      world_->net.node(world_->mobile_ue).as_id,
      world_->net.node(world_->university_probe).as_id);
  EXPECT_EQ(path.size(), 8u);
  EXPECT_EQ(path.front(), world_->as_mobile);
  EXPECT_EQ(path.back(), world_->as_uninet);
}

TEST_F(EuropeFixture, LocalPeeringCollapsesPath) {
  const Path p =
      peered_->net.find_path(peered_->mobile_ue, peered_->university_probe);
  ASSERT_TRUE(p.valid());
  EXPECT_LE(p.hop_count(), 3u);
  EXPECT_LT(p.distance_km, 20.0);
}

TEST_F(EuropeFixture, BreakoutWithoutPeeringKeepsDetour) {
  EuropeOptions options;
  options.local_breakout = true;
  options.local_peering = false;
  const auto world = build_europe(options);
  const Path p = world.net.find_path(world.mobile_ue, world.university_probe);
  // A local gateway alone does not help: the interconnect is still remote
  // (the paper's point about peering and UPF integration being coupled).
  EXPECT_GE(p.hop_count(), 10u);
  EXPECT_GT(p.distance_km, 2000.0);
}

TEST_F(EuropeFixture, WiredHostHasShortPath) {
  const Path p =
      world_->net.find_path(world_->wired_host, world_->university_probe);
  ASSERT_TRUE(p.valid());
  EXPECT_LE(p.hop_count(), 3u);
  const Duration rtt = p.base_one_way + p.base_one_way;
  EXPECT_LT(rtt.ms(), 11.0);  // Horvath [3]: 1-11 ms wired
  EXPECT_GT(rtt.ms(), 1.0);
}

TEST_F(EuropeFixture, CloudPathMatchesExoscaleMeasurements) {
  const Path p = world_->net.find_path(world_->wired_host,
                                       world_->cloud_vienna);
  ASSERT_TRUE(p.valid());
  Rng rng{9};
  stats::Summary rtt;
  for (int i = 0; i < 500; ++i)
    rtt.add(world_->net.sample_rtt(p, rng).ms());
  // Paper [3]: 7-12 ms Klagenfurt wired -> Exoscale cloud.
  EXPECT_GT(rtt.mean(), 7.0);
  EXPECT_LT(rtt.mean(), 13.0);
}

TEST_F(EuropeFixture, TracerouteRttMonotoneOnAverage) {
  Rng rng{2};
  const auto trace = traceroute(world_->net, world_->mobile_ue,
                                world_->university_probe, rng);
  // Cumulative distance must be non-decreasing (RTT per hop is sampled and
  // can jitter, but geometry cannot shrink).
  for (std::size_t i = 1; i < trace.hops.size(); ++i)
    EXPECT_GE(trace.hops[i].cumulative_km + 1e-9,
              trace.hops[i - 1].cumulative_km);
}

TEST_F(EuropeFixture, RemoveLinkForcesReroute) {
  EuropeTopology world = build_europe();
  const Path before =
      world.net.find_path(world.mobile_ue, world.university_probe);
  ASSERT_TRUE(before.valid());
  // Cut the peering link in Prague: the only valley-free interconnect
  // disappears and the destination becomes unreachable. (Snapshot the
  // links_of span before mutating.)
  const auto prague_view = world.net.links_of(
      *world.net.find_node("zetservers.peering.cz"));
  const std::vector<LinkId> prague_links(prague_view.begin(),
                                         prague_view.end());
  for (const LinkId l : prague_links) {
    if (world.net.link(l).relation == LinkRelation::kPeer)
      world.net.remove_link(l);
  }
  const Path after =
      world.net.find_path(world.mobile_ue, world.university_probe);
  EXPECT_FALSE(after.valid());
}

}  // namespace
}  // namespace sixg::topo
