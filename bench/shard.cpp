// google-benchmark suite for the conservative-window sharded fleet:
// the city-serving workload of PR 6 at fleet scale, measured as a
// worker-count scaling curve. `scripts/bench_to_json` turns this
// suite's output into BENCH_shard.json, joining against
// bench/shard_baseline.json — a capture of the SAME binary with
// SIXG_SHARD_FORCE_SERIAL=1, which pins every row to one worker
// thread. The per-row speedup column therefore reads directly as
// parallel scaling: workers:8 speedup = T(1 worker) / T(8 workers).
//
// The frozen workload is 16 spatial shards (city districts of ~625k
// subscribers each — 10M users at full scale), three det-base edge
// GPUs per shard behind join-shortest-queue, 12k req/s offered per
// shard, 10 % of arrivals offloaded to a random remote shard over
// 1.5 ms-floor inter-pod legs (the conservative window). Full scale is
// 6.25M requests per shard (100M total), selected with
// SIXG_SHARD_BENCH_REQUESTS=6250000; the default is 62500 per shard
// (1M total) so an untuned run and `bench_to_json --smoke` stay cheap.
//
// Every row computes fleet_report_digest and aborts on any mismatch
// across worker counts: the scaling curve is only admissible if the
// output is byte-identical at every measured thread count.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>

#include "common/rng.hpp"
#include "edgeai/fleet.hpp"
#include "stats/distributions.hpp"

namespace {

using namespace sixg;

constexpr std::uint32_t kShards = 16;

/// Requests simulated per shard. SIXG_SHARD_BENCH_REQUESTS overrides
/// the quick default; the committed BENCH_shard.json capture sets
/// 6250000 (100M requests across the 16 shards).
std::uint32_t requests_per_shard() {
  if (const char* env = std::getenv("SIXG_SHARD_BENCH_REQUESTS")) {
    const unsigned long v = std::strtoul(env, nullptr, 10);
    if (v > 0) return std::uint32_t(v);
  }
  return 62500;
}

/// SIXG_SHARD_FORCE_SERIAL=1 pins every row to one worker thread —
/// how bench/shard_baseline.json is captured, so the bench_to_json
/// speedup column measures parallel scaling row by row.
bool force_serial() {
  const char* env = std::getenv("SIXG_SHARD_FORCE_SERIAL");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

edgeai::FleetStudy::DelaySampler synthetic_hop(double shift_s,
                                               double mean_s) {
  // Shifted-exponential one-way delay: the shape of a compiled wired
  // path without the topo construction cost.
  const stats::ShiftedExponential hop{shift_s, mean_s};
  return [hop](Rng& rng) { return Duration::from_seconds_f(hop.sample(rng)); };
}

/// One city district: three edge GPUs behind JSQ at 12k req/s, the
/// city-serving shape the fleet studies use.
edgeai::FleetStudy::Config pod_config(std::uint32_t requests) {
  edgeai::FleetStudy::Config config;
  config.model = edgeai::ModelZoo::at("det-base");
  config.policy = edgeai::DispatchPolicy::kJoinShortestQueue;
  config.arrivals_per_second = 12000.0;
  config.requests = requests;
  config.slo = Duration::from_millis_f(20.0);
  config.energy.uplink = DataRate::gbps(2);
  config.energy.downlink = DataRate::gbps(4);
  config.seed = 17;
  for (int i = 0; i < 3; ++i) {
    edgeai::FleetStudy::ServerSpec spec;
    spec.accelerator = edgeai::AcceleratorProfile::edge_gpu();
    spec.batching.max_batch = 8;
    spec.batching.batch_window = Duration::from_millis_f(1.0);
    spec.batching.queue_capacity = 64;
    spec.tier = edgeai::ExecutionTier::kEdge;
    spec.uplink = synthetic_hop(0.3e-3, 0.5e-3);
    spec.downlink = synthetic_hop(0.3e-3, 0.5e-3);
    config.servers.push_back(std::move(spec));
  }
  return config;
}

edgeai::ShardedFleetStudy::Config city_config(std::uint32_t per_shard,
                                              unsigned workers) {
  edgeai::ShardedFleetStudy::Config config;
  config.shard = pod_config(per_shard);
  config.shards = kShards;
  config.workers = workers;
  // Inter-pod legs: 1.5 ms floor == the conservative window (the
  // tightest legal sizing), exponential tail on top.
  config.window = Duration::from_millis_f(1.5);
  config.remote_fraction = 0.10;
  config.remote_uplink = synthetic_hop(1.5e-3, 0.4e-3);
  config.remote_downlink = synthetic_hop(1.5e-3, 0.4e-3);
  return config;
}

// The headline scaling curve: one row per worker count, identical
// workload and — enforced below — identical output bytes.
void BM_ShardedCityServing(benchmark::State& state) {
  const auto workers = unsigned(state.range(0));
  const std::uint32_t per_shard = requests_per_shard();
  const unsigned effective = force_serial() ? 1u : workers;
  edgeai::ShardedFleetStudy::Report report;
  for (auto _ : state) {
    report = edgeai::ShardedFleetStudy::run(city_config(per_shard, effective));
    benchmark::DoNotOptimize(report.completed);
  }
  const std::uint64_t digest = edgeai::fleet_report_digest(report);
  // Determinism gate: every worker count must reproduce the first
  // row's report byte for byte (rows run in registration order, so
  // the reference is the workers:1 row).
  static std::map<std::uint32_t, std::uint64_t> reference;
  const auto [it, first] = reference.emplace(per_shard, digest);
  if (!first && it->second != digest) {
    std::fprintf(stderr,
                 "bench_shard: BM_ShardedCityServing: report digest diverged "
                 "at workers=%u (%016llx != %016llx) — the scaling curve is "
                 "inadmissible\n",
                 effective, static_cast<unsigned long long>(digest),
                 static_cast<unsigned long long>(it->second));
    std::abort();
  }
  state.counters["requests_total"] = double(per_shard) * double(kShards);
  state.counters["windows"] = double(report.windows);
  state.counters["remote_share"] =
      double(report.remote_requests) / (double(per_shard) * double(kShards));
  state.counters["host_cores"] = double(std::thread::hardware_concurrency());
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(per_shard) * std::int64_t(kShards));
}
BENCHMARK(BM_ShardedCityServing)
    ->ArgName("workers")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Kernel overhead at one shard: the windowed wrapper against the plain
// serial FleetStudy on the same workload. The pair bounds what the
// barrier/mailbox machinery costs when there is nothing to overlap
// (their reports are byte-identical — tests/test_sharded.cpp).
constexpr std::uint32_t kOverheadRequests = 250000;

void BM_FleetSerialEngine(benchmark::State& state) {
  for (auto _ : state) {
    const auto report = edgeai::FleetStudy::run(pod_config(kOverheadRequests));
    benchmark::DoNotOptimize(report.completed);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(kOverheadRequests));
}
BENCHMARK(BM_FleetSerialEngine)->Unit(benchmark::kMillisecond);

void BM_FleetOneShardWindowed(benchmark::State& state) {
  for (auto _ : state) {
    edgeai::ShardedFleetStudy::Config config;
    config.shard = pod_config(kOverheadRequests);
    config.shards = 1;
    config.workers = 1;
    config.window = Duration::from_millis_f(1.5);
    const auto report = edgeai::ShardedFleetStudy::run(config);
    benchmark::DoNotOptimize(report.completed);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(kOverheadRequests));
}
BENCHMARK(BM_FleetOneShardWindowed)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
