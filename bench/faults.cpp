// google-benchmark suite gating the cost of failure-awareness in the
// fleet serving engine. The headline benchmark, BM_FleetZeroFault, is the
// zero-fault serving hot path (no fault plan, resilience defaults all
// off): `scripts/bench_to_json` compares it against the committed
// bench/faults_baseline.json — a capture of the SAME workload built from
// the tree immediately before the fault subsystem landed — and the
// acceptance bar is a speedup within noise of 1.0 (≤ 2% regression).
//
// The workload constants are frozen: det-base across a 4-edge + 2-cloud
// fleet behind synthetic access hops, join-shortest-queue, 200k requests
// at 0.8x fleet capacity. Small enough to iterate, large enough that the
// per-request path dominates setup.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "edgeai/fleet.hpp"
#include "stats/distributions.hpp"

namespace {

using namespace sixg;

edgeai::FleetStudy::DelaySampler synthetic_hop() {
  // Shifted-exponential one-way delay (0.5 ms floor, 1.5 ms mean): the
  // shape of a compiled wired path without the topo construction cost.
  const stats::ShiftedExponential hop{0.5e-3, 1.0e-3};
  return [hop](Rng& rng) { return Duration::from_seconds_f(hop.sample(rng)); };
}

edgeai::FleetStudy::Config fleet_config(std::uint32_t requests) {
  edgeai::FleetStudy::Config config;
  config.model = edgeai::ModelZoo::at("det-base");
  config.policy = edgeai::DispatchPolicy::kJoinShortestQueue;
  config.arrivals_per_second = 12000.0;
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

// The zero-fault serving hot path: the ≤2% overhead gate. This function
// must keep running the exact pre-fault workload so the baseline join
// stays meaningful.
void BM_FleetZeroFault(benchmark::State& state) {
  const auto requests = std::uint32_t(state.range(0));
  for (auto _ : state) {
    const auto config = fleet_config(requests);
    const auto report = edgeai::FleetStudy::run(config);
    benchmark::DoNotOptimize(report.completed);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(requests));
}
BENCHMARK(BM_FleetZeroFault)->Arg(200000)->Unit(benchmark::kMillisecond);

// Armed but idle: resilience configured (a deadline timer armed and
// cancelled on every request, a retry budget) with a deadline that never
// expires and no faults. The marginal cost of *carrying* the machinery
// per request, separate from the zero-fault gate above.
void BM_FleetArmedIdle(benchmark::State& state) {
  const auto requests = std::uint32_t(state.range(0));
  for (auto _ : state) {
    auto config = fleet_config(requests);
    config.resilience.deadline = Duration::seconds(10);  // never fires
    config.resilience.max_retries = 2;
    config.resilience.retry_backoff = Duration::micros(200);
    const auto report = edgeai::FleetStudy::run(config);
    benchmark::DoNotOptimize(report.completed);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(requests));
}
BENCHMARK(BM_FleetArmedIdle)->Arg(200000)->Unit(benchmark::kMillisecond);

// The faulted path under load: crashes + retries + deadline + hedging
// all active. Not a regression gate — a cost yardstick for the
// resilience machinery when it is actually working. Asserts the
// determinism contract in-run: the faulted report digests identically
// across repeated executions.
void BM_FleetFaulted(benchmark::State& state) {
  const auto requests = std::uint32_t(state.range(0));
  std::uint64_t digest = 0;
  for (auto _ : state) {
    auto config = fleet_config(requests);
    config.faults.server_crash_rate_per_s = 0.3;
    config.faults.server_mttr = Duration::millis(80);
    config.resilience.deadline = Duration::from_millis_f(50.0);
    config.resilience.max_retries = 2;
    config.resilience.retry_backoff = Duration::micros(200);
    config.resilience.hedge_delay = Duration::from_millis_f(25.0);
    const auto report = edgeai::FleetStudy::run(config);
    const std::uint64_t d = edgeai::fleet_report_digest(report);
    if (digest == 0) digest = d;
    if (d != digest) state.SkipWithError("faulted run digest diverged");
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(requests));
}
BENCHMARK(BM_FleetFaulted)->Arg(200000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
