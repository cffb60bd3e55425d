// google-benchmark suite gating batch formation: the continuous-batching
// scheduler in the fleet serving engine, and the accelerator server's own
// submit -> dynamic-batch dispatch -> complete cycle. Three jobs:
//
//  1. BM_FleetWindowHot is the window-mode serving hot path with the
//     continuous scheduler compiled in but OFF. `scripts/bench_to_json`
//     compares it against the committed bench/batching_modes_baseline.json
//     — a capture of the SAME workload built from the tree immediately
//     before continuous batching landed — and the acceptance bar is a
//     speedup within noise of 1.0 (≤ 2% regression).
//
//  2. The overload pair (BM_FleetWindowOverload / BM_FleetContinuousOverload)
//     measures goodput (SLO-met requests per modeled second) at 1.5x
//     offered-load overload, and BM_ContinuousGoodputGate enforces the
//     headline claim in-bench: continuous + admission control must hold
//     >= 1.3x the window-mode goodput, with a digest gate pinning the
//     continuous run's determinism across iterations.
//
//  3. BM_AcceleratorServerCycle and BM_ServiceTimeEstimate guard the
//     inner loop every serving run executes per request and per batch:
//     one server's queue -> batch -> completion-sink cycle on the event
//     kernel, and the roofline service-time estimate. No baseline join.
//
// The workload constants are frozen: det-base behind synthetic access
// hops, join-shortest-queue, seed 17. The hot-path benchmark offers 12k
// req/s to the 4-edge + 2-cloud fleet (0.8x capacity, same operating
// point as bench/faults.cpp); the overload benchmarks offer 12.45k
// req/s to an edge-only 2-GPU fleet (1.5x its ~8.3k req/s capacity —
// the cloud pair would absorb any realistic overload).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>

#include "edgeai/accelerator.hpp"
#include "edgeai/fleet.hpp"
#include "edgeai/model.hpp"
#include "netsim/simulator.hpp"
#include "stats/distributions.hpp"

namespace {

using namespace sixg;

edgeai::FleetStudy::DelaySampler synthetic_hop() {
  // Shifted-exponential one-way delay (0.5 ms floor, 1.5 ms mean): the
  // shape of a compiled wired path without the topo construction cost.
  const stats::ShiftedExponential hop{0.5e-3, 1.0e-3};
  return [hop](Rng& rng) { return Duration::from_seconds_f(hop.sample(rng)); };
}

edgeai::FleetStudy::Config fleet_config(std::uint32_t requests,
                                        double arrivals_per_second) {
  edgeai::FleetStudy::Config config;
  config.model = edgeai::ModelZoo::at("det-base");
  config.policy = edgeai::DispatchPolicy::kJoinShortestQueue;
  config.arrivals_per_second = arrivals_per_second;
  config.requests = requests;
  config.energy.uplink = DataRate::gbps(2);
  config.energy.downlink = DataRate::gbps(4);
  config.seed = 17;
  for (int i = 0; i < 4; ++i) {
    edgeai::FleetStudy::ServerSpec spec;
    spec.accelerator = edgeai::AcceleratorProfile::edge_gpu();
    spec.tier = edgeai::ExecutionTier::kEdge;
    spec.batching.max_batch = 8;
    spec.batching.batch_window = Duration::from_millis_f(2.0);
    spec.batching.queue_capacity = 256;
    spec.uplink = synthetic_hop();
    spec.downlink = synthetic_hop();
    config.servers.push_back(std::move(spec));
  }
  for (int i = 0; i < 2; ++i) {
    edgeai::FleetStudy::ServerSpec spec;
    spec.accelerator = edgeai::AcceleratorProfile::cloud_gpu();
    spec.tier = edgeai::ExecutionTier::kCloud;
    spec.batching.max_batch = 16;
    spec.batching.batch_window = Duration::from_millis_f(2.0);
    spec.batching.queue_capacity = 256;
    spec.uplink = synthetic_hop();
    spec.downlink = synthetic_hop();
    config.servers.push_back(std::move(spec));
  }
  return config;
}

std::uint32_t bench_requests(std::uint32_t dflt) {
  // CI smoke runs shrink the workload via the environment; the committed
  // BENCH numbers always use the default.
  if (const char* env = std::getenv("SIXG_BATCHING_BENCH_REQUESTS"))
    return std::uint32_t(std::strtoul(env, nullptr, 10));
  return dflt;
}

// The window-mode serving hot path: the ≤2% overhead gate. This function
// must keep running the exact pre-continuous workload so the baseline
// join stays meaningful.
void BM_FleetWindowHot(benchmark::State& state) {
  const auto requests = std::uint32_t(state.range(0));
  for (auto _ : state) {
    const auto config = fleet_config(requests, 12000.0);
    const auto report = edgeai::FleetStudy::run(config);
    benchmark::DoNotOptimize(report.completed);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(requests));
}
BENCHMARK(BM_FleetWindowHot)
    ->Arg(bench_requests(200000))
    ->Unit(benchmark::kMillisecond);

// 1.5x-capacity overload on an edge-only fleet: 2 edge GPUs at batch 8
// saturate around 8.3k req/s (the cloud backstop of the hot-path fleet
// would absorb any realistic overload), so 12.45k req/s drives every
// queue to its ring bound. Window mode then serves almost everything
// late (goodput collapses to ~1% of capacity); the continuous config
// adds iteration-level batch re-formation AND the admission bound (~10
// ms of fleet-wide queue) — the serving-engine configuration the
// overload scenarios ship.
constexpr double kOverloadArrivals = 12450.0;

edgeai::FleetStudy::Config overload_config(std::uint32_t requests,
                                           bool continuous) {
  auto config = fleet_config(requests, kOverloadArrivals);
  config.servers.resize(2);  // drop the cloud pair: edge-only overload
  if (continuous) {
    for (auto& spec : config.servers) spec.batching.continuous = true;
    edgeai::FleetStudy::SloClassSpec cls;
    cls.name = "std";
    cls.shed_queue_depth = 96;
    config.classes.push_back(cls);
  }
  return config;
}

/// Goodput of one run: SLO-met requests per modeled second.
double goodput(const edgeai::FleetStudy::Report& report) {
  return report.goodput_per_s;
}

void BM_FleetWindowOverload(benchmark::State& state) {
  const auto requests = std::uint32_t(state.range(0));
  double gp = 0.0;
  for (auto _ : state) {
    const auto report =
        edgeai::FleetStudy::run(overload_config(requests, false));
    gp = goodput(report);
    benchmark::DoNotOptimize(report.completed);
  }
  state.counters["goodput_per_s"] = gp;
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(requests));
}
BENCHMARK(BM_FleetWindowOverload)
    ->Arg(bench_requests(100000))
    ->Unit(benchmark::kMillisecond);

void BM_FleetContinuousOverload(benchmark::State& state) {
  const auto requests = std::uint32_t(state.range(0));
  double gp = 0.0;
  for (auto _ : state) {
    const auto report =
        edgeai::FleetStudy::run(overload_config(requests, true));
    gp = goodput(report);
    benchmark::DoNotOptimize(report.completed);
  }
  state.counters["goodput_per_s"] = gp;
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(requests));
}
BENCHMARK(BM_FleetContinuousOverload)
    ->Arg(bench_requests(100000))
    ->Unit(benchmark::kMillisecond);

// The headline gate, enforced in-bench: at 1.5x overload the continuous
// scheduler (with admission control) must deliver >= 1.3x window-mode
// goodput, and the continuous run must digest identically across
// iterations (the determinism half of the claim).
void BM_ContinuousGoodputGate(benchmark::State& state) {
  const auto requests = std::uint32_t(state.range(0));
  double ratio = 0.0;
  std::uint64_t digest = 0;
  for (auto _ : state) {
    const auto window =
        edgeai::FleetStudy::run(overload_config(requests, false));
    const auto continuous =
        edgeai::FleetStudy::run(overload_config(requests, true));
    const std::uint64_t d = edgeai::fleet_report_digest(continuous);
    if (digest == 0) digest = d;
    if (d != digest) {
      state.SkipWithError("continuous overload run is not deterministic");
      return;
    }
    ratio = goodput(window) > 0.0 ? goodput(continuous) / goodput(window)
                                  : 0.0;
    if (ratio < 1.3) {
      state.SkipWithError(
          "continuous goodput below 1.3x window under overload");
      return;
    }
    benchmark::DoNotOptimize(ratio);
  }
  state.counters["goodput_ratio"] = ratio;
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(requests) * 2);
}
BENCHMARK(BM_ContinuousGoodputGate)
    ->Arg(bench_requests(100000))
    ->Unit(benchmark::kMillisecond);

// The full queueing cycle of one server: N requests arrive with a fixed
// spacing and drain through dynamic batching into the completion sink.
// Args: max batch size.
void BM_AcceleratorServerCycle(benchmark::State& state) {
  const auto max_batch = std::uint32_t(state.range(0));
  constexpr std::uint32_t kRequests = 4096;
  for (auto _ : state) {
    netsim::Simulator sim;
    edgeai::AcceleratorServer server{
        sim, edgeai::AcceleratorProfile::edge_gpu(),
        edgeai::ModelZoo::at("det-base"),
        {.max_batch = max_batch,
         .batch_window = Duration::from_millis_f(1.0),
         .queue_capacity = kRequests}};
    std::uint64_t done = 0;
    server.set_completion_sink(
        [&done](std::uint32_t, std::uint64_t, const auto&) { ++done; });
    for (std::uint32_t i = 0; i < kRequests; ++i) {
      sim.schedule_after(Duration::micros(std::int64_t(i) * 400),
                         [&server, i] { (void)server.submit(i); });
    }
    sim.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(kRequests));
}
BENCHMARK(BM_AcceleratorServerCycle)->Arg(1)->Arg(8)->Arg(32);

void BM_ServiceTimeEstimate(benchmark::State& state) {
  const auto acc = edgeai::AcceleratorProfile::edge_gpu();
  const auto& model = edgeai::ModelZoo::at("det-base");
  std::uint32_t batch = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(acc.service_time(model, batch));
    batch = batch % 32 + 1;
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_ServiceTimeEstimate);

}  // namespace

BENCHMARK_MAIN();
