// google-benchmark suite for the inference-serving engine: the
// request lifecycle (arrival -> uplink -> dynamic batch -> downlink ->
// record) measured end to end at the request counts the fleet studies
// need. `scripts/bench_to_json` turns this suite's output into
// BENCH_serving.json, comparing against the committed pre-refactor
// baseline (bench/serving_baseline.json).
//
// The workload constants are frozen: det-base on the edge GPU at
// 3000 req/s (≈80 % utilisation at the achieved batch size), batch cap 8
// with a 2 ms window. The baseline capture ran the closure-based
// ServingStudy (per-request std::function completion handlers, nested
// capturing lambdas, retain-everything report, all arrivals prescheduled
// — the only mode that engine had). The current run measures
// ServingStudy — a one-server run of the fleet engine, chained arrivals
// — with the streaming report every million-request study uses.
//
// BM_ServingPeakRss reports the peak-RSS cost of a 1M-request run via
// the `peak_rss_mb` counter (lower is better; bench_to_json emits the
// baseline/current ratio).

#include <benchmark/benchmark.h>

#include <malloc.h>
#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstring>

#include "edgeai/fleet.hpp"
#include "edgeai/serving.hpp"
#include "stats/distributions.hpp"

namespace {

using namespace sixg;

// ------------------------------------------------------------- peak RSS

/// Reset the kernel's peak-RSS watermark for this process so one run's
/// high-water mark is measurable on its own. Linux-only; harmless no-op
/// where /proc/self/clear_refs is unavailable.
void reset_peak_rss() {
#if defined(__GLIBC__)
  // Return freed heap pages to the OS first: earlier benchmarks'
  // allocations otherwise linger in the malloc arenas and inflate the
  // baseline the watermark resets to.
  malloc_trim(0);
#endif
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Current peak RSS in bytes (VmHWM, honouring clear_refs resets), with
/// a getrusage fallback when /proc is unavailable.
std::uint64_t peak_rss_bytes() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    std::uint64_t kb = 0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %llu kB",
                      reinterpret_cast<unsigned long long*>(&kb)) == 1) {
        break;
      }
    }
    std::fclose(f);
    if (kb > 0) return kb * 1024;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return std::uint64_t(usage.ru_maxrss) * 1024;
}

// ------------------------------------------------------------ workloads

edgeai::ServingStudy::Config serving_config(std::uint32_t requests) {
  edgeai::ServingStudy::Config config;
  config.model = edgeai::ModelZoo::at("det-base");
  config.accelerator = edgeai::AcceleratorProfile::edge_gpu();
  config.batching.max_batch = 8;
  config.batching.batch_window = Duration::from_millis_f(2.0);
  config.batching.queue_capacity = 512;
  config.arrivals_per_second = 3000.0;
  config.requests = requests;
  config.seed = 17;
  config.retain_samples = false;
  return config;
}

edgeai::ServingStudy::DelaySampler synthetic_hop() {
  // Shifted-exponential one-way delay (0.5 ms floor, 1.5 ms mean): the
  // shape of a compiled wired path without the topo construction cost.
  const stats::ShiftedExponential hop{0.5e-3, 1.0e-3};
  return [hop](Rng& rng) { return Duration::from_seconds_f(hop.sample(rng)); };
}

// On-device serving: no network hops, the pure submit -> batch ->
// complete lifecycle. This family is the headline metric of
// BENCH_serving.json.
void BM_ServingLocal(benchmark::State& state) {
  const auto requests = std::uint32_t(state.range(0));
  for (auto _ : state) {
    const auto config = serving_config(requests);
    const auto report = edgeai::ServingStudy::run(config);
    benchmark::DoNotOptimize(report.completed);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(requests));
}
BENCHMARK(BM_ServingLocal)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

// Offloaded serving: uplink/downlink delay draws and the radio-airtime
// and energy accounting join the lifecycle.
void BM_ServingNetworked(benchmark::State& state) {
  const auto requests = std::uint32_t(state.range(0));
  for (auto _ : state) {
    auto config = serving_config(requests);
    config.uplink = synthetic_hop();
    config.downlink = synthetic_hop();
    const auto report = edgeai::ServingStudy::run(config);
    benchmark::DoNotOptimize(report.completed);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(requests));
}
BENCHMARK(BM_ServingNetworked)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

// Peak memory of serving 1M requests, each engine in its native
// 1M-request mode. items/s doubles as the throughput of that mode.
void BM_ServingPeakRss(benchmark::State& state) {
  const auto requests = std::uint32_t(state.range(0));
  std::uint64_t peak = 0;
  for (auto _ : state) {
    reset_peak_rss();
    auto config = serving_config(requests);
    config.uplink = synthetic_hop();
    config.downlink = synthetic_hop();
    const auto report = edgeai::ServingStudy::run(config);
    benchmark::DoNotOptimize(report.completed);
    peak = std::max(peak, peak_rss_bytes());
  }
  state.counters["peak_rss_mb"] =
      benchmark::Counter(double(peak) / (1024.0 * 1024.0));
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(requests));
}
BENCHMARK(BM_ServingPeakRss)->Arg(1000000)->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Fleet serving: the city-serving shape — N edge GPUs behind synthetic
// access hops under join-shortest-queue. New with the slab engine (the
// closure engine had no fleet), so no baseline join.
void BM_FleetServing(benchmark::State& state) {
  const auto fleet = std::size_t(state.range(0));
  constexpr std::uint32_t kRequests = 1000000;
  for (auto _ : state) {
    edgeai::FleetStudy::Config config;
    config.model = edgeai::ModelZoo::at("det-base");
    config.policy = edgeai::DispatchPolicy::kJoinShortestQueue;
    config.arrivals_per_second = 3000.0 * double(fleet);
    config.requests = kRequests;
    config.energy.uplink = DataRate::gbps(2);
    config.energy.downlink = DataRate::gbps(4);
    config.seed = 17;
    for (std::size_t i = 0; i < fleet; ++i) {
      edgeai::FleetStudy::ServerSpec spec;
      spec.batching.max_batch = 8;
      spec.batching.batch_window = Duration::from_millis_f(2.0);
      spec.batching.queue_capacity = 512;
      spec.uplink = synthetic_hop();
      spec.downlink = synthetic_hop();
      config.servers.push_back(std::move(spec));
    }
    const auto report = edgeai::FleetStudy::run(config);
    benchmark::DoNotOptimize(report.completed);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * kRequests);
}
BENCHMARK(BM_FleetServing)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
