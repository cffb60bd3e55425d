#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
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
  auto handle = sim.schedule_periodic(10_ms, [&] { ++fired; });
  sim.run_until(TimePoint{} + 55_ms);
  EXPECT_EQ(fired, 5);
  EXPECT_TRUE(handle.active());
}

TEST(Simulator, PeriodicCancelStopsFiring) {
  Simulator sim;
  int fired = 0;
  auto handle = sim.schedule_periodic(10_ms, [&] { ++fired; });
  sim.schedule_after(25_ms, [&] { handle.cancel(); });
  sim.run_until(TimePoint{} + 100_ms);
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(handle.active());
}

TEST(Simulator, PeriodicSelfCancelFromAction) {
  Simulator sim;
  int fired = 0;
  Simulator::PeriodicHandle handle;
  handle = sim.schedule_periodic(5_ms, [&] {
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
  // the determinism contract's tie-break at depth. (Same-time keys all
  // stay in the near heap; the heap/calendar boundary tie is covered by
  // EqualTimeFifoOrderAcrossHeapAndCalendar below.)
  Simulator sim;
  std::vector<int> order;
  order.reserve(10000);
  for (int i = 0; i < 10000; ++i)
    sim.schedule_after(5_ms, [&order, i] { order.push_back(i); });
  sim.run();
  ASSERT_EQ(order.size(), 10000u);
  for (int i = 0; i < 10000; ++i) EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(Simulator, EqualTimeFifoOrderAcrossHeapAndCalendar) {
  // Same-nanosecond events split across the two storage layers: the
  // first batch at 10 ms lands in the near heap (queue still small),
  // the 1 ms fillers pull the heap front earlier, and the second 10 ms
  // batch — scheduled once the queue is past the park threshold with
  // the calendar anchored at the 1 ms front — parks in the calendar.
  // The drain must hand firing back in exact global scheduling order.
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
  // Mixed far/near delays large enough to exercise calendar parking and
  // multi-level cascades; the pop order must be (when, seq) sorted.
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

TEST(Simulator, FarFutureClampedEventsSurviveBucketCascade) {
  // Two dense waves exactly one full top-calendar-rotation (~52
  // simulated days) apart alias to the same top-level slot; the second
  // wave is beyond the hierarchy's span, so draining the first wave
  // re-parks it into the very bucket being drained. It must survive
  // the detach-and-cascade and fire at its exact time.
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
  Simulator::PeriodicHandle handle;
  handle = sim.schedule_periodic(5_ms, [&] {
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
  auto handle = sim.schedule_periodic(10_ms, [&] {
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

TEST(ParallelRunner, ChunkedRunCoversEveryJobExactlyOnce) {
  const ParallelRunner runner{4};
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{1000}}) {
    std::vector<std::atomic<int>> hits(257);
    runner.run_chunked(hits.size(), chunk, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "chunk " << chunk;
  }
}

TEST(ParallelRunner, OversizedChunkIsClampedToAFairSplit) {
  // Regression: chunk >= job_count used to serialise the whole run on
  // the calling thread even with a multi-thread pool (Campaign plans
  // with a large fixed chunk and a small grid lost all parallelism).
  // With the clamp, 64 jobs over 4 threads split into 16-job chunks, so
  // several distinct threads participate.
  const ParallelRunner runner{4};
  std::mutex mu;
  std::map<std::thread::id, int> per_thread;
  runner.run_chunked(64, 1000, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::lock_guard<std::mutex> lock(mu);
    ++per_thread[std::this_thread::get_id()];
  });
  int total = 0;
  for (const auto& [tid, count] : per_thread) total += count;
  EXPECT_EQ(total, 64);
  EXPECT_GE(per_thread.size(), 2u);
}

TEST(ParallelRunner, OversizedChunkEdgeCasesCoverEveryJobOnce) {
  const ParallelRunner runner{4};
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{3},
                                 std::size_t{4}, std::size_t{5}}) {
    for (const std::size_t chunk :
         {jobs, jobs + 1, std::size_t{1000000}}) {
      std::vector<std::atomic<int>> hits(jobs);
      runner.run_chunked(jobs, chunk, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (const auto& h : hits)
        EXPECT_EQ(h.load(), 1) << "jobs " << jobs << " chunk " << chunk;
    }
  }
  bool called = false;
  runner.run_chunked(0, 1000000, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelRunner, ChunkSizeNeverChangesSeededResults) {
  // Seeds derive from the job index alone, so chunk geometry (including
  // the oversized-chunk clamp path) must never leak into results.
  const auto simulate = [](std::size_t i) {
    Simulator sim{derive_seed(99, i)};
    double acc = 0.0;
    for (int k = 0; k < 50; ++k) acc += sim.rng().uniform();
    return acc;
  };
  const ParallelRunner runner{4};
  const auto run_with_chunk = [&](std::size_t chunk) {
    std::vector<double> out(24);
    runner.run_chunked(out.size(), chunk,
                       [&](std::size_t i) { out[i] = simulate(i); });
    return out;
  };
  const auto reference = run_with_chunk(1);
  EXPECT_EQ(reference, run_with_chunk(5));
  EXPECT_EQ(reference, run_with_chunk(24));
  EXPECT_EQ(reference, run_with_chunk(1000));  // the clamped path
}

TEST(ParallelRunner, ChunkedRunKeepsChunksContiguousPerWorker) {
  // Within one chunk the indices run sequentially on a single worker —
  // record the order per thread and check each worker's sequence is
  // piecewise-ascending in steps of 1 within chunk boundaries.
  const ParallelRunner runner{2};
  constexpr std::size_t kChunk = 10;
  std::mutex mu;
  std::map<std::thread::id, std::vector<std::size_t>> per_thread;
  runner.run_chunked(100, kChunk, [&](std::size_t i) {
    const std::lock_guard<std::mutex> lock(mu);
    per_thread[std::this_thread::get_id()].push_back(i);
  });
  for (const auto& [tid, seq] : per_thread) {
    for (std::size_t k = 1; k < seq.size(); ++k) {
      if (seq[k] % kChunk != 0) EXPECT_EQ(seq[k], seq[k - 1] + 1);
    }
  }
}

}  // namespace
}  // namespace sixg::netsim
