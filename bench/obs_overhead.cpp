// Observability overhead gate: the kernel schedule+fire throughput with
// metrics+trace ENABLED must stay within SIXG_OBS_GATE_PCT (default 2%)
// of the same workload with probes disabled. This bounds the quantity
// the probes promise — "off costs <= 2%" — from above:
//
//  * The per-event kernel path carries zero probe instructions either
//    way (counters flush once per run()/run_until() call, not per
//    event), and the EventQueue pushes/parks tallies are unconditional
//    plain members.
//  * With probes off, a build pays only not-taken `if (metrics_on())`
//    branches at non-hot sites; the enabled measurement exercises those
//    same branches on their TAKEN path plus the probe bodies, so
//    off-overhead <= enabled-overhead.
//
// Gating enabled-vs-disabled therefore gates the off cost with margin,
// and it is measurable inside one binary.
//
// Runs 5 interleaved reps per mode and compares medians; wall-clock
// noise gets 3 attempts before the gate fails. Knobs:
//   SIXG_OBS_BENCH_EVENTS  events per rep         (default 2000000)
//   SIXG_OBS_GATE_PCT      max enabled overhead % (default 2.0)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/time.hpp"
#include "netsim/simulator.hpp"
#include "obs/obs.hpp"

namespace {

using namespace sixg;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

double env_f64(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  return std::strtod(v, nullptr);
}

/// One timed kernel workload: 64 interleaved self-rescheduling event
/// chains with staggered periods, so the binary heap and timer wheel
/// both see realistic churn. Returns seconds of wall time for `events`
/// schedule+fire pairs.
double run_workload(std::uint64_t events) {
  netsim::Simulator sim(1);
  constexpr std::uint64_t kChains = 64;
  std::uint64_t budget = events;
  struct Chain {
    netsim::Simulator* sim;
    std::uint64_t* budget;
    std::uint64_t period_ns;
    void operator()() const {
      if (*budget == 0) return;
      --*budget;
      sim->schedule_after(Duration::nanos(std::int64_t(period_ns)), *this);
    }
  };
  for (std::uint64_t k = 0; k < kChains && budget > 0; ++k) {
    --budget;
    sim.schedule_after(Duration::nanos(std::int64_t(200 + 37 * k)),
                       Chain{&sim, &budget, 200 + 37 * k});
  }
  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

}  // namespace

int main() {
  const std::uint64_t events = env_u64("SIXG_OBS_BENCH_EVENTS", 2000000);
  const double gate_pct = env_f64("SIXG_OBS_GATE_PCT", 2.0);
  constexpr int kReps = 5;
  constexpr int kAttempts = 3;

  auto& rt = obs::Runtime::instance();
  obs::Config enabled_cfg;
  enabled_cfg.metrics = true;
  enabled_cfg.trace = true;

  // Warm-up (page faults, allocator steady state) outside the timings.
  (void)run_workload(events / 4 + 1);

  double overhead_pct = 0.0;
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    std::vector<double> off;
    std::vector<double> on;
    for (int rep = 0; rep < kReps; ++rep) {
      rt.disable();
      off.push_back(run_workload(events));
      rt.configure(enabled_cfg);
      rt.begin_scenario("obs-overhead");
      on.push_back(run_workload(events));
      rt.end_scenario();
      rt.disable();
    }
    const double off_s = median(off);
    const double on_s = median(on);
    overhead_pct = (on_s / off_s - 1.0) * 100.0;
    std::printf(
        "obs_overhead: attempt %d: %llu events, disabled %.1f Mev/s, "
        "enabled %.1f Mev/s, overhead %+.2f%% (gate %.2f%%)\n",
        attempt, static_cast<unsigned long long>(events),
        double(events) / off_s / 1e6, double(events) / on_s / 1e6,
        overhead_pct, gate_pct);
    if (overhead_pct <= gate_pct) {
      std::printf("obs_overhead: PASS\n");
      return 0;
    }
  }
  std::printf("obs_overhead: FAIL — enabled probes cost %.2f%% > %.2f%%\n",
              overhead_pct, gate_pct);
  return 1;
}
