#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "netsim/parallel.hpp"
#include "netsim/simulator.hpp"

namespace sixg::netsim {
namespace {

using namespace sixg::literals;

// ---------------------------------------------------------------- Simulator

TEST(Simulator, ProcessesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(3_ms, [&] { order.push_back(3); });
  sim.schedule_after(1_ms, [&] { order.push_back(1); });
  sim.schedule_after(2_ms, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.processed_events(), 3u);
}

TEST(Simulator, EqualTimeEventsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.schedule_after(1_ms, [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  TimePoint seen;
  sim.schedule_after(7_ms, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen.ns(), (7_ms).ns());
  EXPECT_EQ(sim.now().ns(), (7_ms).ns());
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(1_ms, [&] {
    ++fired;
    sim.schedule_after(1_ms, [&] {
      ++fired;
      sim.schedule_after(1_ms, [&] { ++fired; });
    });
  });
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now().ns(), (3_ms).ns());
}

TEST(Simulator, StopHaltsProcessing) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(1_ms, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_after(2_ms, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.stopped());
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, RunUntilHorizon) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(1_ms, [&] { ++fired; });
  sim.schedule_after(5_ms, [&] { ++fired; });
  sim.run_until(TimePoint{} + 3_ms);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().ns(), (3_ms).ns());  // clock lands on the horizon
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, PeriodicFiresAtPeriod) {
  Simulator sim;
  int fired = 0;
  auto handle = sim.schedule_every(10_ms, 10_ms, [&] { ++fired; });
  sim.run_until(TimePoint{} + 55_ms);
  EXPECT_EQ(fired, 5);
  EXPECT_TRUE(handle.active());
}

TEST(Simulator, PeriodicCancelStopsFiring) {
  Simulator sim;
  int fired = 0;
  auto handle = sim.schedule_every(10_ms, 10_ms, [&] { ++fired; });
  sim.schedule_after(25_ms, [&] { handle.cancel(); });
  sim.run_until(TimePoint{} + 100_ms);
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(handle.active());
}

TEST(Simulator, PeriodicSelfCancelFromAction) {
  Simulator sim;
  int fired = 0;
  Simulator::TimerHandle handle;
  handle = sim.schedule_every(5_ms, 5_ms, [&] {
    if (++fired == 3) handle.cancel();
  });
  sim.run_until(TimePoint{} + 200_ms);
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RngIsDeterministicPerSeed) {
  Simulator a{99};
  Simulator b{99};
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.rng()(), b.rng()());
}

// ------------------------------------------------- kernel edge cases

TEST(Simulator, EqualTimeFifoOrderAtTenThousandEvents) {
  // 10k events at the same instant must run in exact scheduling order —
  // the determinism contract's tie-break at depth, where every sift
  // compares equal times and only seq decides.
  Simulator sim;
  std::vector<int> order;
  order.reserve(10000);
  for (int i = 0; i < 10000; ++i)
    sim.schedule_after(5_ms, [&order, i] { order.push_back(i); });
  sim.run();
  ASSERT_EQ(order.size(), 10000u);
  for (int i = 0; i < 10000; ++i) EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(Simulator, EqualTimeFifoOrderAcrossInterleavedFillers) {
  // Same-nanosecond events split by earlier ones: the first batch at
  // 10 ms goes into a small heap, the 1 ms fillers take the front, and
  // the second 10 ms batch is pushed behind them into a deeper heap.
  // Both batches must fire in exact global scheduling order.
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.schedule_after(10_ms, [&order, i] { order.push_back(i); });
  int fillers = 0;
  for (int i = 0; i < 60; ++i)
    sim.schedule_after(1_ms, [&fillers] { ++fillers; });
  for (int i = 10; i < 50; ++i)
    sim.schedule_after(10_ms, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(fillers, 60);
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(Simulator, ManyPendingEventsPopInTimeThenFifoOrder) {
  // 20k events with delays spread over an hour, all scheduled before
  // run(); the pop order must be (when, seq) sorted.
  Simulator sim;
  Rng rng{7};
  std::vector<std::pair<std::int64_t, int>> fired;
  int n = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto delay =
        Duration::nanos(std::int64_t(rng.uniform_int(3'600'000'000'000ull)));
    sim.schedule_after(delay, [&fired, &sim, seq = n++] {
      fired.emplace_back(sim.now().ns(), seq);
    });
  }
  sim.run();
  ASSERT_EQ(fired.size(), 20000u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LE(fired[i - 1].first, fired[i].first);
    if (fired[i - 1].first == fired[i].first)
      ASSERT_LT(fired[i - 1].second, fired[i].second);
  }
}

TEST(Simulator, FarFutureEventsFireAtExactTime) {
  // Two dense waves 2^52 ns (~52 simulated days) apart, the first ~19.5 h
  // out, behind 64 near events: times that differ only in high bits must
  // still order exactly, and each wave fires at its exact time.
  Simulator sim;
  int fillers = 0;
  for (int i = 0; i < 64; ++i)
    sim.schedule_after(1_ms, [&fillers] { ++fillers; });
  const auto t1 = TimePoint::from_ns(std::int64_t{1} << 46);  // ~19.5 h
  const auto t2 = TimePoint::from_ns((std::int64_t{1} << 46) +
                                     (std::int64_t{1} << 52));
  int fired_t1 = 0;
  int fired_t2 = 0;
  for (int i = 0; i < 300; ++i) {
    sim.schedule_at(t1, [&] {
      EXPECT_EQ(sim.now().ns(), t1.ns());
      ++fired_t1;
    });
    sim.schedule_at(t2, [&] {
      EXPECT_EQ(sim.now().ns(), t2.ns());
      ++fired_t2;
    });
  }
  sim.run();
  EXPECT_EQ(fillers, 64);
  EXPECT_EQ(fired_t1, 300);
  EXPECT_EQ(fired_t2, 300);
}

// A seeded event program for the kernel order test. Each firing logs
// (time, id) and schedules 0-2 successors. Every choice is drawn from the
// program's own stream in firing order, so two kernels that fire the
// same events in the same order write the same log, and any difference
// in order changes every later draw. Ids are handed out in scheduling
// order, which is the kernel's seq order.
class OrderProgram {
 public:
  static constexpr std::uint64_t kEvents = 60000;  ///< schedules in total
  static constexpr std::uint64_t kInitial = 400;
  static constexpr std::uint64_t kDeep = 300;  ///< the depth under test

  explicit OrderProgram(std::uint64_t seed) : rng_(seed) {}

  [[nodiscard]] std::uint64_t take_id() { return scheduled_++; }

  /// Start time of one of the first kInitial events, on a 1 ms grid so
  /// that many of them tie.
  [[nodiscard]] std::int64_t initial_ns() {
    return std::int64_t(rng_.uniform_int(50)) * 1'000'000;
  }

  /// Log the firing of `id` at `now_ns` and return the delays (ns) of the
  /// successors to schedule, in order.
  std::vector<std::int64_t> fire(std::int64_t now_ns, std::uint64_t id) {
    log_.emplace_back(now_ns, id);
    ++fired_;
    const std::uint64_t pending = scheduled_ - fired_;
    if (pending >= kDeep) ++deep_firings_;
    if (scheduled_ >= kEvents) return {};
    // 0-2 successors, steered to keep 320-480 events pending.
    std::uint64_t n = rng_.uniform_int(3);
    if (pending < 320) n = 2;
    if (pending > 480) n = 0;
    std::vector<std::int64_t> delays;
    for (std::uint64_t i = 0; i < n; ++i) {
      // A second successor often copies the first: an equal-time tie
      // that only seq can order.
      delays.push_back(i == 1 && rng_.chance(0.25) ? delays[0] : delay());
    }
    return delays;
  }

  [[nodiscard]] const std::vector<std::pair<std::int64_t, std::uint64_t>>&
  log() const {
    return log_;
  }
  [[nodiscard]] std::uint64_t deep_firings() const { return deep_firings_; }

 private:
  /// Zero (a tie with the firing itself), sub-µs, whole milliseconds, or
  /// an hour plus whole seconds.
  std::int64_t delay() {
    switch (rng_.uniform_int(4)) {
      case 0:
        return 0;
      case 1:
        return 1 + std::int64_t(rng_.uniform_int(999));
      case 2:
        return (1 + std::int64_t(rng_.uniform_int(8))) * 1'000'000;
      default:
        return (3600 + std::int64_t(rng_.uniform_int(4))) * 1'000'000'000;
    }
  }

  Rng rng_;
  std::uint64_t scheduled_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t deep_firings_ = 0;
  std::vector<std::pair<std::int64_t, std::uint64_t>> log_;
};

/// The program on the kernel: successors are pushed while the queue
/// drains.
struct KernelDriver {
  Simulator sim;
  OrderProgram program;

  explicit KernelDriver(std::uint64_t seed) : program(seed) {}

  void schedule_at(std::int64_t when_ns) {
    const std::uint64_t id = program.take_id();
    sim.schedule_at(TimePoint::from_ns(when_ns), [this, id] {
      for (const std::int64_t d : program.fire(sim.now().ns(), id))
        schedule_at(sim.now().ns() + d);
    });
  }
};

TEST(Simulator, InterleavedSchedulingMatchesReferenceOrder) {
  // Differential test of the pop order while pushes and pops interleave:
  // the same program on the kernel and on a reference that keeps its
  // pending events in a std::set ordered by (when, seq).
  for (const std::uint64_t seed : {3u, 11u}) {
    KernelDriver kernel{seed};
    for (std::uint64_t i = 0; i < OrderProgram::kInitial; ++i)
      kernel.schedule_at(kernel.program.initial_ns());
    kernel.sim.run();

    OrderProgram reference{seed};
    std::set<std::pair<std::int64_t, std::uint64_t>> pending;
    for (std::uint64_t i = 0; i < OrderProgram::kInitial; ++i) {
      const std::int64_t when = reference.initial_ns();
      pending.emplace(when, reference.take_id());
    }
    while (!pending.empty()) {
      const auto [when, id] = *pending.begin();
      pending.erase(pending.begin());
      for (const std::int64_t d : reference.fire(when, id))
        pending.emplace(when + d, reference.take_id());
    }

    const auto& got = kernel.program.log();
    const auto& want = reference.log();
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "seed " << seed << ", firing " << i;
    }
    EXPECT_GE(want.size(), 50000u);
    EXPECT_GE(reference.deep_firings(), 50000u) << "seed " << seed;
    std::size_t ties = 0;
    for (std::size_t i = 1; i < want.size(); ++i)
      if (want[i].first == want[i - 1].first) ++ties;
    EXPECT_GE(ties, 10000u) << "seed " << seed;
  }
}

TEST(Simulator, RunUntilDiscardsExactlyAtHorizonEvents) {
  // The horizon is half-open: an event at exactly the horizon does not
  // fire during this run_until — it stays pending for the next run.
  Simulator sim;
  int fired = 0;
  sim.schedule_after(3_ms, [&] { ++fired; });
  sim.run_until(TimePoint{} + 3_ms);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.now().ns(), (3_ms).ns());
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, StopMidBatchLeavesRemainingEqualTimeEventsPending) {
  // stop() from inside one event of an equal-time batch: the current
  // action completes, the rest of the batch stays queued.
  Simulator sim;
  std::vector<int> ran;
  for (int i = 0; i < 8; ++i) {
    sim.schedule_after(1_ms, [&, i] {
      ran.push_back(i);
      if (i == 2) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(sim.stopped());
  EXPECT_EQ(sim.pending_events(), 5u);
}

TEST(Simulator, RunUntilAdvancesClockToHorizonEvenAfterStop) {
  // run_until means "simulate this window": the clock lands on the
  // horizon even when stop() ended processing early (the contract the
  // pre-arena kernel established).
  Simulator sim;
  int fired = 0;
  sim.schedule_after(5_ms, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_after(50_ms, [&] { ++fired; });
  sim.run_until(TimePoint{} + 100_ms);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.stopped());
  EXPECT_EQ(sim.now().ns(), (100_ms).ns());
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, PeriodicCancelFromInsideOwnActionIsImmediate) {
  Simulator sim;
  int fired = 0;
  Simulator::TimerHandle handle;
  handle = sim.schedule_every(5_ms, 5_ms, [&] {
    ++fired;
    handle.cancel();  // first firing disarms the timer
    EXPECT_FALSE(handle.active());
  });
  sim.run_until(TimePoint{} + 100_ms);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(handle.active());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, ScheduleEveryHonoursFirstDelayIncludingZero) {
  Simulator sim;
  std::vector<std::int64_t> at;
  auto handle = sim.schedule_every(Duration{}, 10_ms, [&] {
    at.push_back(sim.now().ns());
  });
  sim.run_until(TimePoint{} + 35_ms);
  EXPECT_EQ(at, (std::vector<std::int64_t>{0, (10_ms).ns(), (20_ms).ns(),
                                           (30_ms).ns()}));
  handle.cancel();

  std::vector<std::int64_t> offset;
  Simulator sim2;
  sim2.schedule_every(3_ms, 10_ms, [&] {
    offset.push_back(sim2.now().ns());
  });
  sim2.run_until(TimePoint{} + 25_ms);
  EXPECT_EQ(offset, (std::vector<std::int64_t>{(3_ms).ns(), (13_ms).ns(),
                                               (23_ms).ns()}));
}

TEST(Simulator, ScheduleOnceFiresOnceAndCancelDisarms) {
  Simulator sim;
  int fired = 0;
  auto handle = sim.schedule_once(2_ms, [&] { ++fired; });
  EXPECT_TRUE(handle.active());
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(handle.active());  // one-shot released after firing

  auto cancelled = sim.schedule_once(2_ms, [&] { ++fired; });
  cancelled.cancel();
  EXPECT_FALSE(cancelled.active());
  sim.run();
  EXPECT_EQ(fired, 1);  // never fired
}

TEST(Simulator, StaleHandleCancelIsANoOpAfterSlotReuse) {
  Simulator sim;
  int first = 0;
  int second = 0;
  auto a = sim.schedule_once(1_ms, [&] { ++first; });
  sim.run();
  EXPECT_EQ(first, 1);
  // The slab slot of `a` is free; the next timer likely reuses it.
  auto b = sim.schedule_once(1_ms, [&] { ++second; });
  a.cancel();  // stale generation: must NOT disarm b
  EXPECT_TRUE(b.active());
  sim.run();
  EXPECT_EQ(second, 1);
}

TEST(Simulator, OneShotCancellationUnderChurnNeverMisfires) {
  // The request-timeout pattern under heavy slot recycling: every
  // "request" arms a deadline; completions cancel it just in time,
  // reusing freed timer slots across many generations. Exactly the
  // uncancelled deadlines may fire, each exactly once, and cancelling
  // an already-fired handle must stay a no-op.
  Simulator sim;
  constexpr int kRequests = 2000;
  std::vector<Simulator::TimerHandle> deadline(kRequests);
  std::vector<int> timeout_fired(kRequests, 0);
  int completions = 0;
  int expected_completions = 0;
  for (int r = 0; r < kRequests; ++r) {
    if (r % 3 != 2) ++expected_completions;
    sim.schedule_at(TimePoint{} + Duration::micros(10 * r), [&, r] {
      deadline[r] = sim.schedule_once(
          Duration::micros(500), [&, r] { ++timeout_fired[r]; });
      // Every third request "times out": its completion never arrives.
      if (r % 3 == 2) return;
      sim.schedule_after(Duration::micros(499 - (r % 97)), [&, r] {
        deadline[r].cancel();
        ++completions;
      });
    });
  }
  sim.run();
  EXPECT_EQ(completions, expected_completions);
  for (int r = 0; r < kRequests; ++r) {
    EXPECT_EQ(timeout_fired[r], r % 3 == 2 ? 1 : 0) << r;
    deadline[r].cancel();  // stale: fired or cancelled long ago
  }
  // The churned wheel still arms and fires cleanly afterwards.
  int late = 0;
  sim.schedule_once(1_ms, [&] { ++late; });
  sim.run();
  EXPECT_EQ(late, 1);
}

TEST(Simulator, PeriodicAndOneShotAtEqualTimeKeepFifoOrder) {
  // A one-shot scheduled before a periodic's re-arm point runs first at
  // the shared instant: the periodic takes a fresh (later) seq when it
  // re-arms after each firing, exactly like trampoline re-scheduling.
  Simulator sim;
  std::vector<std::string> order;
  sim.schedule_at(TimePoint{} + 20_ms, [&] { order.push_back("oneshot"); });
  auto handle = sim.schedule_every(10_ms, 10_ms, [&] {
    order.push_back("periodic@" + std::to_string(sim.now().ns() / 1000000));
  });
  sim.run_until(TimePoint{} + 25_ms);
  handle.cancel();
  EXPECT_EQ(order, (std::vector<std::string>{"periodic@10", "oneshot",
                                             "periodic@20"}));
}

// --------------------------------------------------------- InplaceAction

TEST(InplaceAction, SmallCapturesStayInline) {
  struct Big {
    std::int64_t a, b, c, d, e;  // 40 bytes: inline
  };
  const auto lambda = [big = Big{1, 2, 3, 4, 5}] { (void)big; };
  EXPECT_TRUE(InplaceAction::fits_inline<decltype(lambda)>());
  struct Huge {
    std::int64_t xs[9];  // 72 bytes: heap fallback
  };
  const auto fat = [huge = Huge{}] { (void)huge; };
  EXPECT_FALSE(InplaceAction::fits_inline<decltype(fat)>());
}

TEST(InplaceAction, InvokesInlineAndHeapCallables) {
  int hits = 0;
  InplaceAction small{[&hits] { ++hits; }};
  small();
  EXPECT_EQ(hits, 1);

  std::array<std::int64_t, 16> payload{};
  payload[15] = 42;
  std::int64_t seen = 0;
  InplaceAction large{[payload, &seen] { seen = payload[15]; }};
  large();
  EXPECT_EQ(seen, 42);
}

TEST(InplaceAction, MoveTransfersOwnershipAndEmptiesSource) {
  int hits = 0;
  InplaceAction a{[&hits] { ++hits; }};
  InplaceAction b{std::move(a)};
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);

  InplaceAction c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InplaceAction, DestroysCaptureExactlyOnce) {
  auto counter = std::make_shared<int>(0);
  {
    InplaceAction act{[counter] { }};
    EXPECT_EQ(counter.use_count(), 2);
    InplaceAction moved{std::move(act)};
    EXPECT_EQ(counter.use_count(), 2);  // relocation, not a copy
  }
  EXPECT_EQ(counter.use_count(), 1);
}

// ------------------------------------------------------------ ParallelRunner

TEST(ParallelRunner, RunsEveryJobExactlyOnce) {
  const ParallelRunner runner{4};
  std::vector<std::atomic<int>> hits(257);
  runner.run(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelRunner, ZeroJobsIsNoop) {
  const ParallelRunner runner{4};
  bool called = false;
  runner.run(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelRunner, MapPreservesIndexOrder) {
  const ParallelRunner runner{4};
  const auto squares = runner.map<int>(
      100, [](std::size_t i) { return int(i * i); });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(squares[std::size_t(i)], i * i);
}

TEST(ParallelRunner, SingleThreadFallback) {
  const ParallelRunner runner{1};
  EXPECT_EQ(runner.thread_count(), 1u);
  std::vector<int> order;
  runner.run(10, [&](std::size_t i) { order.push_back(int(i)); });
  // Single-threaded execution is strictly sequential.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(ParallelRunner, DefaultsToHardwareConcurrency) {
  const ParallelRunner runner;
  EXPECT_GE(runner.thread_count(), 1u);
}

TEST(ParallelRunner, ParallelEqualsSerialForSeededSimulations) {
  // The core determinism contract: simulations seeded via derive_seed
  // produce identical results regardless of the worker count.
  const auto simulate = [](std::size_t i) {
    Simulator sim{derive_seed(42, i)};
    double acc = 0.0;
    for (int k = 0; k < 100; ++k) acc += sim.rng().uniform();
    return acc;
  };
  const ParallelRunner serial{1};
  const ParallelRunner parallel{4};
  const auto a = serial.map<double>(64, simulate);
  const auto b = parallel.map<double>(64, simulate);
  EXPECT_EQ(a, b);
}

TEST(ParallelRunner, MoreJobsThanThreads) {
  const ParallelRunner runner{3};
  std::atomic<std::int64_t> sum{0};
  runner.run(1000, [&](std::size_t i) {
    sum.fetch_add(std::int64_t(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 999 * 1000 / 2);
}

TEST(ParallelRunner, SeveralThreadsTakePart) {
  // 64 jobs over 4 threads: the caller does not run the batch alone.
  const ParallelRunner runner{4};
  std::mutex mu;
  std::map<std::thread::id, int> per_thread;
  runner.run(64, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::lock_guard<std::mutex> lock(mu);
    ++per_thread[std::this_thread::get_id()];
  });
  int total = 0;
  for (const auto& [tid, count] : per_thread) total += count;
  EXPECT_EQ(total, 64);
  EXPECT_GE(per_thread.size(), 2u);
}

TEST(ParallelRunner, ConcurrentCallersEachRunEveryJobOnce) {
  // Two callers share the process's executor at once; batches open and
  // close back to back, so helpers keep waking to batches that another
  // caller may already have exhausted and closed.
  constexpr int kRounds = 1000;
  const ParallelRunner runner{4};
  std::vector<std::atomic<int>> hits_a(257);
  std::vector<std::atomic<int>> hits_b(257);
  std::atomic<int> ready{0};
  const auto caller = [&](std::vector<std::atomic<int>>& hits) {
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
    for (int round = 0; round < kRounds; ++round) {
      runner.run(hits.size(), [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
    }
  };
  std::thread a{caller, std::ref(hits_a)};
  std::thread b{caller, std::ref(hits_b)};
  a.join();
  b.join();
  for (std::size_t i = 0; i < hits_a.size(); ++i) {
    EXPECT_EQ(hits_a[i].load(), kRounds) << "caller a, job " << i;
    EXPECT_EQ(hits_b[i].load(), kRounds) << "caller b, job " << i;
  }
}

}  // namespace
}  // namespace sixg::netsim
