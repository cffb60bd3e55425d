// google-benchmark suite for the sampling kernels: the one log kernel,
// block RNG words (Rng::fill), the arrival pre-draw
// (ShiftedExponential::sample_into) against its per-draw loop, and the
// per-draw network samplers the serving engines run (CompiledPath RTT
// draws, radio-headed edgeai::NetLeg draws). Every log is the one scalar
// kernel, stats::fast_log_positive_normal.
//
// The committed baseline (bench/sample_baseline.json) is an older
// capture on another host, so a joined BENCH_sample.json row measures
// the box as well as the code; the control rows whose code never
// changed show how far the box moved.
//
// main() refuses to run any timing until the arrival pre-draw reproduces
// the per-draw sampler bit-for-bit: a benchmark of a block sampler that
// broke the replay contract would be a number about nothing.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "edgeai/net_leg.hpp"
#include "radio/link_model.hpp"
#include "radio/profile.hpp"
#include "stats/distributions.hpp"
#include "stats/fast_math.hpp"
#include "topo/network.hpp"

namespace {

using namespace sixg;
using namespace sixg::topo;

// Same chain shape as bench/topo_path.cpp: varied utilisations spanning
// the Europe world's range.
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

CompiledPath compile_chain(const Network& net, int hops) {
  return net.compile(net.find_path(NodeId{0}, NodeId{std::uint32_t(hops)}));
}

// --------------------------------------------------------- fast_log core

// Per-draw scalar kernel calls over a buffer of sampler-shaped inputs
// x = 1 - u: the log kernel alone.
void BM_FastLogScalarLoop(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  std::vector<double> x(n), out(n);
  Rng rng{42};
  for (double& v : x) v = 1.0 - rng.uniform();
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i)
      out[i] = stats::fast_log_positive_normal(x[i]);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(n));
}
BENCHMARK(BM_FastLogScalarLoop)->Arg(256);

// ------------------------------------------------------------- raw words

void BM_RngFill(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  std::vector<std::uint64_t> words(n);
  Rng rng{42};
  for (auto _ : state) {
    rng.fill(words);
    benchmark::DoNotOptimize(words.data());
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(n));
}
BENCHMARK(BM_RngFill)->Arg(256)->Arg(4096);

void BM_RngScalarWords(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  std::vector<std::uint64_t> words(n);
  Rng rng{42};
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) words[i] = rng();
    benchmark::DoNotOptimize(words.data());
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(n));
}
BENCHMARK(BM_RngScalarWords)->Arg(256);

// ------------------------------------------------- exponential arrivals

// The arrival pre-draw of the serving engines: block interarrival
// sampling through Rng::fill and the scalar log kernel.
void BM_ExpSampleInto(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  const stats::ShiftedExponential dist{0.0, 1.0 / 4000.0};
  std::vector<double> out(n);
  Rng rng{42};
  for (auto _ : state) {
    dist.sample_into(out, rng);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(n));
}
BENCHMARK(BM_ExpSampleInto)->Arg(256)->Arg(1024);

void BM_ExpSampleLoop(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  const stats::ShiftedExponential dist{0.0, 1.0 / 4000.0};
  std::vector<double> out(n);
  Rng rng{42};
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) out[i] = dist.sample(rng);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(n));
}
BENCHMARK(BM_ExpSampleLoop)->Arg(256);

// ------------------------------------------------------ path RTT draws

// Networked RTT draws: one sample_rtt call per draw, as PingMeasurement
// and the latency ladders draw them.
void BM_SampleRttScalarLoop(benchmark::State& state) {
  constexpr std::size_t kBatch = 256;
  const int hops = int(state.range(0));
  const Network net = make_chain(hops);
  const CompiledPath path = compile_chain(net, hops);
  std::vector<double> out(kBatch);
  Rng rng{42};
  for (auto _ : state) {
    for (std::size_t i = 0; i < kBatch; ++i) out[i] = path.sample_rtt(rng).ms();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(kBatch));
}
BENCHMARK(BM_SampleRttScalarLoop)->Arg(4)->Arg(8)->Arg(16);

// ------------------------------------------------------ serving net legs

// The serving engines' request leg: radio uplink then the wired path,
// one draw per request.
void BM_NetLegRadioScalarLoop(benchmark::State& state) {
  constexpr std::size_t kBlock = 256;
  const int hops = int(state.range(0));
  const Network net = make_chain(hops);
  const radio::RadioLinkModel radio_model{radio::AccessProfile::sixg()};
  const edgeai::NetLeg leg = edgeai::NetLeg::radio_then_path(
      radio_model, radio::CellConditions{}, compile_chain(net, hops));
  std::vector<Duration> out(kBlock);
  Rng rng{42};
  for (auto _ : state) {
    for (std::size_t i = 0; i < kBlock; ++i) out[i] = leg(rng);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(kBlock));
}
BENCHMARK(BM_NetLegRadioScalarLoop)->Arg(8);

// ------------------------------------------------------ per-draw samplers

// One draw at a time: the lognormal behind the model-level jitters, and
// a loaded 5G NSA cell's radio RTT.
void BM_LognormalSample(benchmark::State& state) {
  const stats::Lognormal dist = stats::Lognormal::from_median(10.0, 0.4);
  Rng rng{3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.sample(rng));
  }
}
BENCHMARK(BM_LognormalSample);

void BM_RadioRttSample(benchmark::State& state) {
  const radio::RadioLinkModel model{radio::AccessProfile::fiveg_nsa()};
  const radio::CellConditions conditions{.load = 0.5,
                                         .quality = 0.7,
                                         .bler = 0.1,
                                         .spike_rate = 0.02};
  Rng rng{2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.sample_rtt(conditions, rng));
  }
}
BENCHMARK(BM_RadioRttSample);

// ------------------------------------------------------ bit-equality gate

// Abort before timing anything if the arrival pre-draw diverges from the
// per-draw sampler by a single bit anywhere in a 4096-draw sweep, or
// leaves the RNG on a different word.
void verify_bit_equality_or_die() {
  const stats::ShiftedExponential dist{0.0, 1.0 / 4000.0};
  Rng block_rng{977};
  Rng scalar_rng{977};
  std::vector<double> out(4096);
  dist.sample_into(out, block_rng);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double ref = dist.sample(scalar_rng);
    std::uint64_t a, b;
    std::memcpy(&a, &out[i], 8);
    std::memcpy(&b, &ref, 8);
    if (a != b) {
      std::fprintf(stderr,
                   "bench_sample_batch: the arrival pre-draw diverges from "
                   "the per-draw sampler at draw %zu (%a != %a); refusing "
                   "to benchmark a broken sampler\n",
                   i, out[i], ref);
      std::abort();
    }
  }
  if (block_rng() != scalar_rng()) {
    std::fprintf(stderr,
                 "bench_sample_batch: the arrival pre-draw consumed a "
                 "different number of RNG words than the per-draw sampler\n");
    std::abort();
  }
}

}  // namespace

int main(int argc, char** argv) {
  verify_bit_equality_or_die();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
