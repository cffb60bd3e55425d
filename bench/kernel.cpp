// google-benchmark suite for the discrete-event kernel itself: the
// schedule -> fire hot path, periodic-timer churn, and a mixed workload
// shaped like the serving scenarios. This is the denominator of every
// campaign: kernel throughput bounds how many replications and grid
// points a sweep can afford. `scripts/bench_to_json` turns this suite's
// output into BENCH_kernel.json, comparing against the committed
// pre-refactor baseline (bench/kernel_baseline.json).
//
// The one-shot rows use only the pre-refactor Simulator API surface
// (schedule_at / schedule_after / run / run_until), so the same source
// measured the binary-heap + std::function kernel and measures the arena
// kernel today. The periodic rows call schedule_every(p, p, ...), which
// arms the same timer as the period-only call the baseline was timed on.
//
// Queue depths the workloads reach (the most one-shot events pending in
// one event queue at once, counted by an instrumented build): 284 in
// `fleet-dispatch-ablation`, the most of any `sixg_run --run all`
// scenario; 128-132 in `fleet-resilience-ablation` and
// `degraded-fleet-slo`; 84-114 in the other fleet scenarios; at most 60
// elsewhere; 85 and 375 in e2ebench's `fleet-city` and `fleet-overload`.
// BM_HoldModel measures those depths. The ScheduleFire and
// MixedWorkload rows schedule 10k-1M events before running, deeper than
// any workload goes.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "netsim/simulator.hpp"

namespace {

using namespace sixg;
using namespace sixg::literals;

// Schedule N one-shot events with short modular delays, then drain them.
// The core schedule+fire cycle with a mostly-sorted arrival pattern, at
// 10k-1M pending events: far deeper than any workload (see the header),
// so these rows bound the queue's cost at depth, not a scenario's.
void BM_ScheduleFire(benchmark::State& state) {
  const auto events = std::size_t(state.range(0));
  for (auto _ : state) {
    netsim::Simulator sim;
    std::uint64_t counter = 0;
    for (std::size_t i = 0; i < events; ++i) {
      sim.schedule_after(Duration::micros(std::int64_t(i % 997)),
                         [&counter] { ++counter; });
    }
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(events));
}
BENCHMARK(BM_ScheduleFire)->Arg(10000)->Arg(100000)->Arg(1000000);

// The same cycle at a trivially small scale, reported separately: with
// ~1k pending events any queue is shallow and per-event cost is
// dominated by closure construction and dispatch, not ordering.
void BM_ScheduleFireSmall(benchmark::State& state) {
  constexpr std::size_t kEvents = 1000;
  for (auto _ : state) {
    netsim::Simulator sim;
    std::uint64_t counter = 0;
    for (std::size_t i = 0; i < kEvents; ++i) {
      sim.schedule_after(Duration::micros(std::int64_t(i % 997)),
                         [&counter] { ++counter; });
    }
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(kEvents));
}
BENCHMARK(BM_ScheduleFireSmall);

// Same cycle with uniformly random delays: adversarial heap ordering, no
// help from arrival locality.
void BM_ScheduleFireRandom(benchmark::State& state) {
  const auto events = std::size_t(state.range(0));
  for (auto _ : state) {
    netsim::Simulator sim;
    Rng rng{42};
    std::uint64_t counter = 0;
    for (std::size_t i = 0; i < events; ++i) {
      sim.schedule_after(Duration::nanos(std::int64_t(rng.uniform_int(
                             10'000'000))),
                         [&counter] { ++counter; });
    }
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(events));
}
BENCHMARK(BM_ScheduleFireRandom)->Arg(10000)->Arg(100000);

// Interleaved schedule/fire: every fired event schedules a successor, a
// ladder of nested timers like protocol timeouts. Queue stays small; the
// cost is pure per-event overhead (allocation, dispatch).
void BM_NestedLadder(benchmark::State& state) {
  const auto events = std::uint64_t(state.range(0));
  for (auto _ : state) {
    netsim::Simulator sim;
    std::uint64_t remaining = events;
    // Four independent ladders so the queue holds a handful of events.
    for (int lane = 0; lane < 4; ++lane) {
      struct Step {
        netsim::Simulator* sim;
        std::uint64_t* remaining;
        void operator()() const {
          if (*remaining == 0) return;
          --*remaining;
          sim->schedule_after(Duration::micros(13), Step{*this});
        }
      };
      sim.schedule_after(Duration::micros(lane), Step{&sim, &remaining});
    }
    sim.run();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(events));
}
BENCHMARK(BM_NestedLadder)->Arg(100000);

// Hold model, the classic steady-state queue benchmark: `depth` events
// pending throughout, each firing schedules one successor at an
// exponential increment (mean 1 ms), 1M firings per iteration. The
// increments come from a table drawn once, so the loop times the queue
// and not the logarithm.
void BM_HoldModel(benchmark::State& state) {
  const auto depth = std::uint64_t(state.range(0));
  constexpr std::uint64_t kFirings = 1'000'000;
  constexpr std::size_t kTable = 1 << 16;  // power of two: mask to wrap
  std::vector<Duration> increments(kTable);
  Rng rng{42};
  for (Duration& d : increments) {
    d = Duration::nanos(std::int64_t(-1.0e6 * std::log1p(-rng.uniform())));
  }
  struct Hold {
    netsim::Simulator* sim;
    const std::vector<Duration>* increments;
    std::uint64_t* scheduled;
    void operator()() const {
      if (*scheduled == kFirings) return;
      const Duration d = (*increments)[*scheduled & (kTable - 1)];
      ++*scheduled;
      sim->schedule_after(d, *this);
    }
  };
  for (auto _ : state) {
    netsim::Simulator sim;
    std::uint64_t scheduled = 0;
    const Hold hold{&sim, &increments, &scheduled};
    for (std::uint64_t i = 0; i < depth; ++i) hold();
    sim.run();
    benchmark::DoNotOptimize(scheduled);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(kFirings));
}
BENCHMARK(BM_HoldModel)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

// Periodic-timer churn: K timers with co-prime periods firing across a
// horizon. On the pre-refactor kernel each firing re-armed through a
// shared_ptr trampoline; this measures exactly that path.
void BM_PeriodicChurn(benchmark::State& state) {
  const auto timers = int(state.range(0));
  std::uint64_t fired_total = 0;
  for (auto _ : state) {
    netsim::Simulator sim;
    std::uint64_t fired = 0;
    for (int k = 0; k < timers; ++k) {
      const Duration period = Duration::micros(50 + 7 * k);
      sim.schedule_every(period, period, [&fired] { ++fired; });
    }
    sim.run_until(TimePoint{} + 50_ms);
    benchmark::DoNotOptimize(fired);
    fired_total += fired;
  }
  state.SetItemsProcessed(std::int64_t(fired_total));
}
BENCHMARK(BM_PeriodicChurn)->Arg(16)->Arg(256);

// Arm-and-cancel: periodic timers cancelled mid-flight, plus a fresh
// timer armed per cancellation. Exercises handle lifetime management.
void BM_PeriodicCancelChurn(benchmark::State& state) {
  constexpr int kTimers = 64;
  std::uint64_t fired_total = 0;
  for (auto _ : state) {
    netsim::Simulator sim;
    std::uint64_t fired = 0;
    std::vector<netsim::Simulator::TimerHandle> handles;
    handles.reserve(kTimers);
    for (int k = 0; k < kTimers; ++k) {
      const Duration period = Duration::micros(40 + k);
      handles.push_back(
          sim.schedule_every(period, period, [&fired] { ++fired; }));
    }
    // Cancel every timer partway, then re-arm a replacement.
    sim.schedule_after(10_ms, [&] {
      for (auto& h : handles) h.cancel();
      for (int k = 0; k < kTimers; ++k) {
        const Duration period = Duration::micros(60 + k);
        sim.schedule_every(period, period, [&fired] { ++fired; });
      }
    });
    sim.run_until(TimePoint{} + 20_ms);
    benchmark::DoNotOptimize(fired);
    fired_total += fired;
  }
  state.SetItemsProcessed(std::int64_t(fired_total));
}
BENCHMARK(BM_PeriodicCancelChurn);

// Mixed workload shaped like the serving studies: a few periodic pacers,
// a stream of one-shot arrivals, and per-arrival nested completions.
void BM_MixedWorkload(benchmark::State& state) {
  const auto arrivals = std::size_t(state.range(0));
  for (auto _ : state) {
    netsim::Simulator sim;
    std::uint64_t done = 0;
    for (int k = 0; k < 8; ++k) {
      const Duration period = Duration::micros(200 + 31 * k);
      sim.schedule_every(period, period, [&done] { ++done; });
    }
    for (std::size_t i = 0; i < arrivals; ++i) {
      sim.schedule_after(
          Duration::micros(std::int64_t(i) * 3), [&sim, &done] {
            sim.schedule_after(Duration::micros(120), [&sim, &done] {
              sim.schedule_after(Duration::micros(80), [&done] { ++done; });
            });
          });
    }
    sim.run_until(TimePoint{} + Duration::micros(std::int64_t(arrivals) * 3 +
                                                 1000));
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(arrivals) * 3);
}
BENCHMARK(BM_MixedWorkload)->Arg(10000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
