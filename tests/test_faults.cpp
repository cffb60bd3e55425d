/// Fault model + failure-aware dispatch harness, three layers deep:
///   1. plan: FaultPlan generation is pure, sorted, stream-independent
///      and gated by FaultConfig::any(); the injector dispatches every
///      entry to its hook at the scheduled instant;
///   2. server: the crash/drain/recover state machine — FIFO loss
///      reporting, epoch-guarded batch completion, health-gated
///      admission, straggler slowdown;
///   3. fleet: timeouts, retries, hedging and shedding settle every
///      request exactly once (delivered + failed == offered), stay
///      deterministic under fault churn, and hold across shards at any
///      worker count.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "edgeai/accelerator.hpp"
#include "edgeai/fleet.hpp"
#include "edgeai/model.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "netsim/simulator.hpp"
#include "stats/distributions.hpp"

namespace sixg {
namespace {

using edgeai::AcceleratorProfile;
using edgeai::AcceleratorServer;
using edgeai::FleetStudy;
using edgeai::ServerHealth;
using faults::FaultConfig;
using faults::FaultEvent;
using faults::FaultKind;
using faults::FaultPlan;
using netsim::Simulator;

// --------------------------------------------------------------- plan

FaultConfig crashy_config() {
  FaultConfig config;
  config.server_crash_rate_per_s = 2.0;
  config.server_mttr = Duration::millis(40);
  config.horizon = Duration::seconds(5);
  config.servers = 4;
  return config;
}

TEST(FaultPlan, GenerateIsPureAndSortedByTime) {
  const auto config = crashy_config();
  const auto a = FaultPlan::generate(config, 71);
  const auto b = FaultPlan::generate(config, 71);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].at.ns(), b.events[i].at.ns()) << i;
    EXPECT_EQ(a.events[i].kind, b.events[i].kind) << i;
    EXPECT_EQ(a.events[i].target, b.events[i].target) << i;
    if (i > 0) EXPECT_GE(a.events[i].at.ns(), a.events[i - 1].at.ns()) << i;
  }
  const auto reseeded = FaultPlan::generate(config, 72);
  ASSERT_FALSE(reseeded.empty());
  EXPECT_NE(a.events.front().at.ns(), reseeded.events.front().at.ns());
}

TEST(FaultPlan, EveryCrashHasItsRecoverAtCrashPlusMttr) {
  const auto plan = FaultPlan::generate(crashy_config(), 9);
  std::vector<std::int64_t> down_until(4, -1);
  for (const auto& e : plan.events) {
    if (e.kind == FaultKind::kServerCrash) {
      EXPECT_LT(down_until[e.target], e.at.ns()) << "overlapping windows";
      EXPECT_GT(e.duration.ns(), 0);
      down_until[e.target] = (e.at + e.duration).ns();
    } else if (e.kind == FaultKind::kServerRecover) {
      EXPECT_EQ(e.at.ns(), down_until[e.target]) << "unmatched recover";
    }
  }
}

TEST(FaultPlan, AnyGatesGeneration) {
  FaultConfig off;
  EXPECT_FALSE(off.any());
  EXPECT_TRUE(FaultPlan::generate(off, 1).empty());
  // Rates without a horizon generate nothing at the plan layer (the
  // fleet defaults the horizon before it gets here).
  FaultConfig no_horizon;
  no_horizon.server_crash_rate_per_s = 5.0;
  no_horizon.servers = 2;
  EXPECT_FALSE(no_horizon.any());
  EXPECT_TRUE(FaultPlan::generate(no_horizon, 1).empty());
  // A scripted event is activity on its own.
  FaultConfig scripted;
  scripted.scripted.push_back(
      {Duration::millis(5), Duration::millis(1), 1.0,
       FaultKind::kServerCrash, 0});
  EXPECT_TRUE(scripted.any());
  EXPECT_EQ(FaultPlan::generate(scripted, 1).events.size(), 1u);
}

TEST(FaultPlan, StreamsAreIndependentPerKindAndTarget) {
  // Adding a straggler process must not move a single crash event, and
  // adding a server must not move the existing servers' events: every
  // (stream, target) pair owns its own derived RNG.
  const auto base = FaultPlan::generate(crashy_config(), 13);
  auto with_stragglers = crashy_config();
  with_stragglers.straggler_rate_per_s = 3.0;
  with_stragglers.straggler_mean = Duration::millis(30);
  auto more_servers = crashy_config();
  more_servers.servers = 6;
  for (const auto& plan : {FaultPlan::generate(with_stragglers, 13),
                           FaultPlan::generate(more_servers, 13)}) {
    std::vector<FaultEvent> crashes;
    for (const auto& e : plan.events) {
      if ((e.kind == FaultKind::kServerCrash ||
           e.kind == FaultKind::kServerRecover) &&
          e.target < 4)
        crashes.push_back(e);
    }
    ASSERT_EQ(crashes.size(), base.events.size());
    for (std::size_t i = 0; i < crashes.size(); ++i) {
      EXPECT_EQ(crashes[i].at.ns(), base.events[i].at.ns()) << i;
      EXPECT_EQ(crashes[i].kind, base.events[i].kind) << i;
      EXPECT_EQ(crashes[i].target, base.events[i].target) << i;
    }
  }
}

TEST(FaultInjector, DispatchesEveryEventAtItsInstantInPlanOrder) {
  FaultConfig config;
  config.scripted = {
      {Duration::millis(2), Duration::millis(3), 1.0, FaultKind::kServerCrash,
       1},
      {Duration::millis(5), {}, 1.0, FaultKind::kServerRecover, 1},
      {Duration::millis(4), Duration::millis(2), 2.5,
       FaultKind::kStraggleBegin, 0},
      {Duration::millis(6), {}, 1.0, FaultKind::kStraggleEnd, 0},
  };
  const auto plan = FaultPlan::generate(config, 1);
  ASSERT_EQ(plan.events.size(), 4u);

  Simulator sim;
  faults::FaultInjector injector;
  struct Seen {
    std::int64_t at_ns;
    FaultKind kind;
    std::uint32_t target;
  };
  std::vector<Seen> seen;
  faults::FaultInjector::Hooks hooks;
  hooks.server_down = [&](std::uint32_t s, Duration mttr) {
    EXPECT_EQ(mttr.ns(), Duration::millis(3).ns());
    seen.push_back({sim.now().ns(), FaultKind::kServerCrash, s});
  };
  hooks.server_up = [&](std::uint32_t s) {
    seen.push_back({sim.now().ns(), FaultKind::kServerRecover, s});
  };
  hooks.straggle_begin = [&](std::uint32_t s, double factor) {
    EXPECT_EQ(factor, 2.5);
    seen.push_back({sim.now().ns(), FaultKind::kStraggleBegin, s});
  };
  // straggle_end left unset on purpose: skipped but still counted.
  injector.arm(sim, plan, std::move(hooks));
  sim.run();

  EXPECT_EQ(injector.fired(), 4u);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].at_ns, Duration::millis(2).ns());
  EXPECT_EQ(seen[0].kind, FaultKind::kServerCrash);
  EXPECT_EQ(seen[0].target, 1u);
  EXPECT_EQ(seen[1].at_ns, Duration::millis(4).ns());
  EXPECT_EQ(seen[1].kind, FaultKind::kStraggleBegin);
  EXPECT_EQ(seen[2].at_ns, Duration::millis(5).ns());
  EXPECT_EQ(seen[2].kind, FaultKind::kServerRecover);
}

// ------------------------------------------------------------- server

AcceleratorServer::BatchingConfig small_batches() {
  AcceleratorServer::BatchingConfig config;
  config.max_batch = 4;
  config.batch_window = Duration::from_millis_f(1.0);
  config.queue_capacity = 16;
  return config;
}

TEST(AcceleratorFaults, FailLosesInflightThenQueueInFifoOrder) {
  Simulator sim;
  AcceleratorServer server{sim, AcceleratorProfile::edge_gpu(),
                           edgeai::ModelZoo::at("det-base"), small_batches()};
  std::vector<std::uint32_t> completed;
  std::vector<std::uint32_t> lost;
  server.set_completion_sink(
      [&](std::uint32_t slot, std::uint64_t, const AcceleratorServer::Completion&) {
        completed.push_back(slot);
      });
  server.set_failure_sink(
      [&](std::uint32_t slot, std::uint64_t payload) {
        EXPECT_EQ(payload, 100u + slot);
        lost.push_back(slot);
      });
  // Four launch immediately as a full batch; two more wait in the queue.
  for (std::uint32_t slot = 0; slot < 6; ++slot)
    ASSERT_TRUE(server.submit(slot, 100u + slot));
  ASSERT_TRUE(server.busy());
  ASSERT_EQ(server.queue_depth(), 2u);

  server.fail();
  EXPECT_EQ(server.health(), ServerHealth::kDown);
  EXPECT_FALSE(server.accepting());
  EXPECT_EQ(lost, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(server.lost_to_crashes(), 6u);

  // Down: submissions are refused and counted, not queued.
  EXPECT_FALSE(server.submit(9, 109));
  EXPECT_EQ(server.rejected_unhealthy(), 1u);

  // The in-flight batch's completion event is still pending; the crash
  // epoch voids it — nothing may surface after sim.run().
  server.recover();
  EXPECT_EQ(server.health(), ServerHealth::kUp);
  ASSERT_TRUE(server.submit(7, 107));
  sim.run();
  EXPECT_EQ(completed, (std::vector<std::uint32_t>{7}));
  EXPECT_EQ(server.completed(), 1u);
}

TEST(AcceleratorFaults, DrainFinishesQueuedWorkButRejectsNew) {
  Simulator sim;
  AcceleratorServer server{sim, AcceleratorProfile::edge_gpu(),
                           edgeai::ModelZoo::at("det-base"), small_batches()};
  std::vector<std::uint32_t> completed;
  server.set_completion_sink(
      [&](std::uint32_t slot, std::uint64_t, const AcceleratorServer::Completion&) {
        completed.push_back(slot);
      });
  ASSERT_TRUE(server.submit(0));
  ASSERT_TRUE(server.submit(1));
  server.drain();
  EXPECT_EQ(server.health(), ServerHealth::kDraining);
  EXPECT_FALSE(server.accepting());
  EXPECT_FALSE(server.submit(2));
  EXPECT_EQ(server.rejected_unhealthy(), 1u);
  sim.run();
  EXPECT_EQ(completed, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(server.lost_to_crashes(), 0u);
  server.recover();
  EXPECT_TRUE(server.accepting());
}

TEST(AcceleratorFaults, StragglerMultiplierStretchesServiceTime) {
  const auto run_one = [](double multiplier) {
    Simulator sim;
    AcceleratorServer server{sim, AcceleratorProfile::edge_gpu(),
                             edgeai::ModelZoo::at("det-base"),
                             small_batches()};
    TimePoint done;
    server.set_completion_sink(
        [&](std::uint32_t, std::uint64_t,
            const AcceleratorServer::Completion& c) { done = c.done; });
    server.set_service_rate_multiplier(multiplier);
    EXPECT_TRUE(server.submit(0));
    sim.run();
    return done;
  };
  const auto nominal = run_one(1.0);
  const auto straggling = run_one(3.0);
  EXPECT_GT(straggling.ns(), nominal.ns());
  // Compute stretches; the batch window (the wait before launch) does
  // not, so the slowdown is less than the full 3x on the total.
  EXPECT_LT(straggling.ns(), nominal.ns() * 3);
}

// -------------------------------------------------------------- fleet

FleetStudy::DelaySampler synthetic_hop(double shift_s, double mean_s) {
  const stats::ShiftedExponential hop{shift_s, mean_s};
  return [hop](Rng& rng) { return Duration::from_seconds_f(hop.sample(rng)); };
}

FleetStudy::Config fleet_config(std::size_t edges, std::uint64_t seed) {
  FleetStudy::Config config;
  config.model = edgeai::ModelZoo::at("det-base");
  config.policy = edgeai::DispatchPolicy::kJoinShortestQueue;
  config.arrivals_per_second = 6000.0;
  config.requests = 20000;
  config.slo = Duration::from_millis_f(20.0);
  config.energy.uplink = DataRate::gbps(2);
  config.energy.downlink = DataRate::gbps(4);
  config.seed = seed;
  for (std::size_t i = 0; i < edges; ++i) {
    FleetStudy::ServerSpec spec;
    spec.accelerator = AcceleratorProfile::edge_gpu();
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

/// Every request settles exactly once: delivered (one e2e sample) or
/// failed (shed, timed out, or out of retry budget) — never both, never
/// neither. The single most load-bearing invariant of the request
/// lifecycle; a stale timer or a double-settled hedge twin breaks it.
void expect_settled_exactly_once(const FleetStudy::Report& report,
                                 std::uint64_t offered) {
  EXPECT_EQ(report.e2e_ms.count() + report.failed, offered);
  EXPECT_LE(report.within_slo, report.e2e_ms.count());
  EXPECT_LE(report.timed_out + report.shed, report.failed);
}

TEST(FleetFaults, CrashesAreTerminalWithoutRetries) {
  auto config = fleet_config(3, 5);
  config.faults.server_crash_rate_per_s = 0.5;
  config.faults.server_mttr = Duration::millis(100);
  const auto report = FleetStudy::run(config);
  EXPECT_GT(report.fault_events, 0u);
  EXPECT_GT(report.lost_to_crashes, 0u);
  EXPECT_GT(report.failed, 0u);
  EXPECT_LT(report.availability(), 1.0);
  EXPECT_EQ(report.retries, 0u);
  expect_settled_exactly_once(report, config.requests);
  // The per-server loss/rejection counters roll up into the report.
  std::uint64_t lost = 0;
  for (const auto& s : report.servers) lost += s.lost;
  EXPECT_EQ(lost, report.lost_to_crashes);
}

TEST(FleetFaults, RetriesFailOverAndRecoverAvailability) {
  auto config = fleet_config(3, 5);
  config.faults.server_crash_rate_per_s = 0.5;
  config.faults.server_mttr = Duration::millis(100);
  const auto baseline = FleetStudy::run(config);
  config.resilience.max_retries = 3;
  config.resilience.retry_backoff = Duration::micros(200);
  const auto retried = FleetStudy::run(config);
  EXPECT_GT(retried.retries, 0u);
  EXPECT_GT(retried.availability(), baseline.availability());
  expect_settled_exactly_once(retried, config.requests);
}

TEST(FleetFaults, DeadlineTimesOutTheTail) {
  auto config = fleet_config(2, 17);  // 2 GPUs: a real queueing tail
  config.resilience.deadline = Duration::from_millis_f(6.0);
  const auto report = FleetStudy::run(config);
  EXPECT_GT(report.timed_out, 0u);
  EXPECT_LT(report.e2e_q.quantile(1.0), 6.0 + 1e-9);  // expiry is terminal
  expect_settled_exactly_once(report, config.requests);
}

TEST(FleetFaults, HedgesRaceAndTheLoserIsDiscarded) {
  auto config = fleet_config(3, 23);
  config.resilience.hedge_delay = Duration::from_millis_f(3.0);
  const auto report = FleetStudy::run(config);
  EXPECT_GT(report.hedges, 0u);
  EXPECT_GT(report.hedge_wins, 0u);
  EXPECT_LE(report.hedge_wins, report.hedges);
  expect_settled_exactly_once(report, config.requests);
  // Server completion counters count hedge losers too; the delivered
  // count never exceeds them.
  EXPECT_GE(report.completed, report.e2e_ms.count());
}

TEST(FleetFaults, SheddingBoundsFleetLoad) {
  auto config = fleet_config(2, 29);
  config.resilience.shed_queue_depth = 24;
  const auto report = FleetStudy::run(config);
  EXPECT_GT(report.shed, 0u);
  expect_settled_exactly_once(report, config.requests);
}

/// The satellite regression: slots recycle furiously under a tight
/// deadline + retries + hedging + crash churn. A deadline/hedge/backoff
/// timer surviving its slot's release would fire against whatever
/// request reused the slot — the epoch guard must make that impossible,
/// which the settle-exactly-once invariant and run-to-run digest
/// equality observe.
TEST(FleetFaults, RecycledSlotsNeverSeeStaleTimersUnderChurn) {
  auto config = fleet_config(2, 31);
  config.requests = 30000;
  config.arrivals_per_second = 8000.0;
  config.faults.server_crash_rate_per_s = 1.0;
  config.faults.server_mttr = Duration::millis(50);
  config.resilience.deadline = Duration::from_millis_f(6.0);
  config.resilience.max_retries = 2;
  config.resilience.retry_backoff = Duration::micros(300);
  config.resilience.hedge_delay = Duration::from_millis_f(2.0);
  const auto a = FleetStudy::run(config);
  EXPECT_GT(a.timed_out, 0u);
  EXPECT_GT(a.retries, 0u);
  EXPECT_GT(a.hedges, 0u);
  expect_settled_exactly_once(a, config.requests);
  const auto b = FleetStudy::run(config);
  EXPECT_EQ(edgeai::fleet_report_digest(a), edgeai::fleet_report_digest(b));
}

/// A class with no deadline next to one with a deadline: only some slots
/// ever arm a deadline timer, yet releasing a slot cancels its timers
/// whatever its class. The per-slot timer columns must cover every slot,
/// not just the ones that armed.
TEST(FleetFaults, ClassWithoutDeadlineBesideOneWithADeadlineSettlesOnce) {
  auto config = fleet_config(3, 43);
  config.arrivals_per_second = 9000.0;
  for (auto& spec : config.servers) {
    spec.batching.queue_capacity = 48;
    spec.batching.lanes = 2;
  }
  FleetStudy::SloClassSpec interactive;
  interactive.name = "interactive";
  interactive.share = 0.3;
  interactive.deadline = Duration::millis(12);
  FleetStudy::SloClassSpec batch;
  batch.name = "batch";
  batch.share = 0.7;
  batch.lane = 1;
  config.classes = {interactive, batch};
  const auto report = FleetStudy::run(config);
  expect_settled_exactly_once(report, config.requests);
  for (const auto& cs : report.classes) {
    EXPECT_EQ(cs.delivered + cs.failed, cs.offered) << cs.name;
  }
}

TEST(FleetFaults, StragglerWindowsDegradeTheTailDeterministically) {
  auto config = fleet_config(3, 37);
  config.faults.straggler_rate_per_s = 0.4;
  config.faults.straggler_mean = Duration::millis(200);
  config.faults.straggler_factor = 6.0;
  const auto slowed = FleetStudy::run(config);
  const auto nominal = FleetStudy::run(fleet_config(3, 37));
  EXPECT_GT(slowed.fault_events, 0u);
  EXPECT_GT(slowed.e2e_q.quantile(0.999), nominal.e2e_q.quantile(0.999));
  EXPECT_EQ(edgeai::fleet_report_digest(slowed),
            edgeai::fleet_report_digest(FleetStudy::run(config)));
}

// ------------------------------------------------------------ sharded

TEST(ShardedFleetFaults, OneFaultedShardDigestsIdenticalToSerial) {
  auto shard = fleet_config(3, 11);
  shard.requests = 10000;
  shard.faults.server_crash_rate_per_s = 0.6;
  shard.faults.server_mttr = Duration::millis(60);
  shard.resilience.max_retries = 2;
  shard.resilience.retry_backoff = Duration::micros(250);
  shard.resilience.deadline = Duration::from_millis_f(15.0);
  const auto serial = FleetStudy::run(shard);
  edgeai::ShardedFleetStudy::Config sharded;
  sharded.shard = shard;
  sharded.shards = 1;
  sharded.window = Duration::millis(1);
  sharded.remote_fraction = 0.25;  // inert with one shard
  const auto windowed = edgeai::ShardedFleetStudy::run(sharded);
  EXPECT_GT(serial.fault_events, 0u);
  EXPECT_EQ(edgeai::fleet_report_digest(serial),
            edgeai::fleet_report_digest(windowed));
}

TEST(ShardedFleetFaults, FaultedCityDigestsIdenticalAcrossWorkerCounts) {
  const auto make = [](unsigned workers, Duration hedge_delay) {
    edgeai::ShardedFleetStudy::Config config;
    config.shard = fleet_config(3, 41);
    config.shard.requests = 8000;
    config.shard.faults.server_crash_rate_per_s = 0.8;
    config.shard.faults.server_mttr = Duration::millis(60);
    config.shard.resilience.max_retries = 2;
    config.shard.resilience.retry_backoff = Duration::micros(250);
    config.shard.resilience.deadline = Duration::from_millis_f(15.0);
    config.shard.resilience.hedge_delay = hedge_delay;
    config.shards = 4;
    config.workers = workers;
    config.window = Duration::from_millis_f(1.5);
    config.remote_fraction = 0.25;
    config.remote_uplink = synthetic_hop(1.5e-3, 0.4e-3);
    config.remote_downlink = synthetic_hop(1.5e-3, 0.4e-3);
    return config;
  };
  // Pinned values: the only digests that cover remote results and remote
  // drop notices with faults and resilience on, so a change to either
  // remote handler shows here even when it moves every worker count
  // alike. Hedging arms a timer that remote requests never get, so the
  // second city also checks that the per-slot hedge timers cover every
  // slot.
  struct City {
    Duration hedge_delay;
    std::uint64_t digest;
  };
  for (const City city : {City{Duration{}, 0xb3778181d4472414ULL},
                          City{Duration::millis(10), 0x1dd23416938b3688ULL}}) {
    SCOPED_TRACE(city.hedge_delay.ns());
    const auto reference =
        edgeai::ShardedFleetStudy::run(make(1, city.hedge_delay));
    // Faults and remote traffic both actually flow: crashes fire in
    // every pod (per-pod plans from rebased seeds) and crashed remote
    // copies fail over through the mailboxes.
    EXPECT_GT(reference.fault_events, 0u);
    EXPECT_GT(reference.remote_requests, 0u);
    EXPECT_GT(reference.retries, 0u);
    expect_settled_exactly_once(reference, 4 * 8000);
    const std::uint64_t want = edgeai::fleet_report_digest(reference);
    EXPECT_EQ(want, city.digest);
    for (const unsigned workers : {2u, 8u}) {
      EXPECT_EQ(edgeai::fleet_report_digest(edgeai::ShardedFleetStudy::run(
                    make(workers, city.hedge_delay))),
                want)
          << "workers " << workers;
    }
  }
}

}  // namespace
}  // namespace sixg
