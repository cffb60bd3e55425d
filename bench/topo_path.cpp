// google-benchmark suite for the topology layer: per-draw latency
// sampling, the inner loop of every measurement-style scenario (grid
// campaigns, atlas fleets, latency ladders, serving-over-network), and
// path resolution (policy AS routing + layered Dijkstra), which a
// scenario pays once per path it compiles. `scripts/bench_to_json` turns
// the output into BENCH_topo.json against the committed pre-refactor
// baseline (bench/topo_baseline.json: Network::sample_rtt with per-draw
// link() lookups + libm log, find_path with a freshly allocated layered
// Dijkstra per query).
//
// The shared-name benchmarks measure today's implementation of the same
// operation (CompiledPath draws, on-demand find_path); the *Legacy
// variants keep the reference path measurable side by side.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "geo/coords.hpp"
#include "topo/backbone.hpp"
#include "topo/europe.hpp"
#include "topo/network.hpp"

namespace {

using namespace sixg;
using namespace sixg::topo;

// A single-AS chain of `hops` links with varied utilisation — the shape
// of the per-hop sampling loop without routing noise. Utilisations span
// the range the Europe world uses (access tails to loaded core links).
Network make_chain(int hops) {
  Network net;
  const AsId as = net.add_as(1, "chain");
  std::vector<NodeId> nodes;
  for (int i = 0; i <= hops; ++i) {
    char name[24];
    char ipv4[24];
    std::snprintf(name, sizeof(name), "n%d", i);
    std::snprintf(ipv4, sizeof(ipv4), "10.0.0.%d", i);
    nodes.push_back(net.add_node(name, ipv4, NodeKind::kRouter, as,
                                 {46.0 + 0.05 * double(i), 14.0}));
  }
  for (int i = 0; i < hops; ++i) {
    Network::LinkOptions options;
    options.utilization = 0.15 + 0.05 * double(i % 10);
    net.add_link(nodes[std::size_t(i)], nodes[std::size_t(i) + 1],
                 LinkRelation::kIntraAs, options);
  }
  return net;
}

// Flattening a routed path into its compiled sampler (one-time cost a
// campaign pays per path; no baseline counterpart).
void BM_PathCompile(benchmark::State& state) {
  const EuropeTopology europe = build_europe();
  const Path path =
      europe.net.find_path(europe.mobile_ue, europe.university_probe);
  for (auto _ : state) {
    benchmark::DoNotOptimize(europe.net.compile(path));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PathCompile);

// Single RTT draw on an intra-AS chain path of N hops: the inner loop of
// every ping-style campaign. The headline ">=2x" metric of the compiled
// sampler.
void BM_SampleRtt(benchmark::State& state) {
  const int hops = int(state.range(0));
  const Network net = make_chain(hops);
  const CompiledPath path =
      net.compile(net.find_path(NodeId{0}, NodeId{std::uint32_t(hops)}));
  Rng rng{42};
  for (auto _ : state) {
    benchmark::DoNotOptimize(path.sample_rtt(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SampleRtt)->Arg(4)->Arg(8)->Arg(16);

// The pre-refactor sampler on the same path, for an in-binary reference
// (link() lookup + distribution object per draw).
void BM_SampleRttLegacy(benchmark::State& state) {
  const int hops = int(state.range(0));
  const Network net = make_chain(hops);
  const Path path = net.find_path(NodeId{0}, NodeId{std::uint32_t(hops)});
  Rng rng{42};
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.sample_rtt(path, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SampleRttLegacy)->Arg(8);

// The measured Europe detour path (10 router hops across 8 ASes) — the
// exact path the paper's campaign samples millions of times.
void BM_SampleRttEurope(benchmark::State& state) {
  const EuropeTopology europe = build_europe();
  const CompiledPath path = europe.net.compile(
      europe.net.find_path(europe.mobile_ue, europe.university_probe));
  Rng rng{42};
  for (auto _ : state) {
    benchmark::DoNotOptimize(path.sample_rtt(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SampleRttEurope);

// Inter-AS resolution of the measured Europe detour (10 router hops
// across 8 ASes) on a freshly built world per iteration (construction is
// untimed): AS routing towards the destination plus the layered
// Dijkstra over the policy AS path.
void BM_FindPathCold(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    const EuropeTopology world = build_europe();
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        world.net.find_path(world.mobile_ue, world.university_probe));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FindPathCold);

// Pure intra-AS Dijkstra on a 32-hop chain: router-level routing with
// no AS routing.
void BM_FindPathIntra(benchmark::State& state) {
  const Network net = make_chain(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.find_path(NodeId{0}, NodeId{32}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FindPathIntra);

// One stage of find_path on the Europe world: the policy AS routes from
// every AS towards the university's AS.
void BM_AsRouteComputation(benchmark::State& state) {
  const EuropeTopology europe = build_europe();
  for (auto _ : state) {
    benchmark::DoNotOptimize(europe.net.compute_as_routes_to(europe.as_uninet));
  }
}
BENCHMARK(BM_AsRouteComputation);

// find_path between stub hosts of the synthetic backbone (1 and 4 stub
// ASes per city): policy routing well beyond the 8-AS evaluation world.
void BM_BackboneRouting(benchmark::State& state) {
  const Backbone backbone = build_backbone(int(state.range(0)));
  const auto& hosts = backbone.stub_hosts;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(backbone.net.find_path(
        hosts[i % hosts.size()], hosts[(i * 7 + 3) % hosts.size()]));
    ++i;
  }
}
BENCHMARK(BM_BackboneRouting)->Arg(1)->Arg(4);

// Incident-link enumeration: a span over the node's adjacency list, no
// allocation per call.
void BM_LinksOf(benchmark::State& state) {
  const EuropeTopology europe = build_europe();
  const NodeId node = europe.mobile_ue;
  for (auto _ : state) {
    benchmark::DoNotOptimize(europe.net.links_of(node));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinksOf);

// Great-circle distance, which every link length derives from.
void BM_HaversineDistance(benchmark::State& state) {
  const geo::LatLon a{46.62, 14.31};
  const geo::LatLon b{48.21, 16.37};
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::distance_km(a, b));
  }
}
BENCHMARK(BM_HaversineDistance);

}  // namespace

BENCHMARK_MAIN();
