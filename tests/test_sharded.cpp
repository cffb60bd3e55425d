/// Determinism and causality harness for the sharded kernel. Three
/// layers, mirroring the contract in netsim/sharded.hpp:
///   1. kernel: a 1-shard ShardedSimulator replays a plain Simulator
///      timeline event for event, and an N-shard message storm is
///      byte-identical at any worker count;
///   2. causality: randomized cross-shard latencies and window sizes —
///      no event may execute before the conservative lower bound of the
///      window it was posted from (source barrier clock + window);
///   3. fleet: a 1-shard ShardedFleetStudy digests identically to the
///      serial FleetStudy across seeds and {networked, local} fleets,
///      and an N-pod run digests identically at worker counts 1/2/4/8,
///      also when its windows nest inside a 4-thread sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "edgeai/fleet.hpp"
#include "netsim/parallel.hpp"
#include "netsim/sharded.hpp"
#include "netsim/simulator.hpp"
#include "stats/distributions.hpp"

namespace sixg {
namespace {

using netsim::ShardedSimulator;
using netsim::Simulator;

// ------------------------------------------------------------- kernel

/// A seeded event cascade on one timeline: log (time, draw), then
/// reschedule after a drawn delay until `remaining` hops are spent.
struct CascadeEvent {
  Simulator* sim;
  std::vector<std::pair<std::int64_t, std::uint64_t>>* log;
  Rng* rng;
  std::uint32_t remaining;
  void operator()() const {
    const std::uint64_t draw = (*rng)();
    log->emplace_back(sim->now().ns(), draw);
    if (remaining == 0) return;
    sim->schedule_after(Duration::micros(std::int64_t(draw % 500) + 1),
                        CascadeEvent{sim, log, rng, remaining - 1});
  }
};

TEST(ShardedSimulator, OneShardReplaysThePlainSimulatorTimeline) {
  // Schedule identical cascades on a timeline, then drain it — the
  // plain simulator with run(), the sharded kernel through its windowed
  // driver. Windowed stepping must not change a single (time, draw).
  const auto run_cascades = [](Simulator& sim, auto&& drain) {
    std::vector<std::pair<std::int64_t, std::uint64_t>> log;
    Rng rng{derive_seed(7, 0xcafe)};
    for (int c = 0; c < 4; ++c) {
      sim.schedule_at(TimePoint{} + Duration::micros(10 * (c + 1)),
                      CascadeEvent{&sim, &log, &rng, 40});
    }
    drain();
    return log;
  };
  Simulator plain{netsim::shard_seed(7, 0)};
  const auto reference = run_cascades(plain, [&] { plain.run(); });

  ShardedSimulator::Config config;
  config.shards = 1;
  config.window = Duration::micros(37);  // windows never change the order
  config.seed = 7;
  ShardedSimulator sharded{config};
  const auto windowed =
      run_cascades(sharded.shard(0), [&] { sharded.run(); });
  EXPECT_EQ(reference, windowed);
  EXPECT_GT(sharded.windows(), 1u);
  EXPECT_EQ(sharded.messages(), 0u);
}

/// Shared state of the cross-shard message storm. Each shard owns its
/// RNG and its log; events hop shards through post() with a latency of
/// at least one window (the conservative contract), or reschedule
/// locally. `violations` counts events that executed before the
/// conservative lower bound of their source window — it must stay 0.
struct Storm {
  ShardedSimulator* kernel = nullptr;
  Duration window;
  std::vector<std::vector<std::pair<std::int64_t, std::uint64_t>>> logs;
  std::vector<Rng> rngs;
  std::atomic<std::uint64_t> violations{0};
};

struct StormEvent {
  Storm* storm;
  std::uint32_t shard;
  std::uint32_t hops;
  std::int64_t not_before;  ///< conservative lower bound when posted
  std::uint64_t tag;
  void operator()() const {
    Storm& s = *storm;
    Simulator& sim = s.kernel->shard(shard);
    if (sim.now().ns() < not_before) {
      s.violations.fetch_add(1, std::memory_order_relaxed);
    }
    const std::uint64_t draw = s.rngs[shard]();
    s.logs[shard].emplace_back(sim.now().ns(), tag ^ draw);
    if (hops == 0) return;
    const Duration extra = Duration::micros(std::int64_t(draw % 700));
    const std::uint32_t shards = s.kernel->shard_count();
    if (shards > 1 && (draw & 1) != 0) {
      std::uint32_t dst = std::uint32_t((draw >> 8) % (shards - 1));
      if (dst >= shard) ++dst;
      // Source window lower bound: barrier clock + one window. Latency
      // >= window keeps the message conservative; `extra` randomizes it.
      const TimePoint bound = s.kernel->now() + s.window;
      const TimePoint at = sim.now() + s.window + extra;
      s.kernel->post(shard, dst, at,
                     StormEvent{storm, dst, hops - 1, bound.ns(),
                                tag * 31 + dst});
    } else {
      sim.schedule_after(extra,
                         StormEvent{storm, shard, hops - 1,
                                    sim.now().ns(), tag * 31 + shard});
    }
  }
};
static_assert(sizeof(StormEvent) <= netsim::InplaceAction::kInlineBytes);

/// Run one storm configuration and return the full per-shard logs.
std::vector<std::vector<std::pair<std::int64_t, std::uint64_t>>> run_storm(
    std::uint32_t shards, Duration window, unsigned workers,
    std::uint64_t seed) {
  ShardedSimulator::Config config;
  config.shards = shards;
  config.window = window;
  config.seed = seed;
  config.workers = workers;
  ShardedSimulator kernel{config};
  Storm storm;
  storm.kernel = &kernel;
  storm.window = window;
  storm.logs.resize(shards);
  for (std::uint32_t k = 0; k < shards; ++k) {
    storm.rngs.emplace_back(derive_seed(seed, 0x570 + k));
    for (int c = 0; c < 3; ++c) {
      kernel.shard(k).schedule_at(
          TimePoint{} + Duration::micros(5 * (c + 1)),
          StormEvent{&storm, k, 60, 0, seed ^ (k * 97u + std::uint64_t(c))});
    }
  }
  kernel.run();
  EXPECT_EQ(storm.violations.load(), 0u)
      << "events executed before their source window's conservative bound";
  EXPECT_GT(kernel.messages(), 0u);
  return storm.logs;
}

TEST(ShardedSimulator, StormIsByteIdenticalAcrossWorkerCounts) {
  const auto reference = run_storm(4, Duration::micros(800), 1, 11);
  for (const unsigned workers : {2u, 4u, 8u}) {
    EXPECT_EQ(reference, run_storm(4, Duration::micros(800), workers, 11))
        << "workers " << workers;
  }
}

TEST(ShardedSimulator, CausalityHoldsUnderRandomizedWindowsAndLatencies) {
  // Randomized shard counts, window sizes and (via the storm's draws)
  // cross-shard latencies; repeated so sanitizer jobs get scheduling
  // variety. run_storm itself asserts the causality bound; here we also
  // pin worker-count invariance per configuration.
  Rng shape{0xca05a117};
  for (int iteration = 0; iteration < 6; ++iteration) {
    const std::uint32_t shards = 2 + std::uint32_t(shape.uniform_int(4));
    const Duration window =
        Duration::micros(200 + std::int64_t(shape.uniform_int(1800)));
    const std::uint64_t seed = shape();
    const auto serial = run_storm(shards, window, 1, seed);
    const auto wide = run_storm(shards, window, 4, seed);
    EXPECT_EQ(serial, wide) << "iteration " << iteration;
  }
}

TEST(ShardedSimulator, ShardSeedsAreStableAndAnchorShardZero) {
  EXPECT_EQ(netsim::shard_seed(123, 0), 123u);  // the equivalence anchor
  EXPECT_NE(netsim::shard_seed(123, 1), netsim::shard_seed(123, 2));
  EXPECT_NE(netsim::shard_seed(123, 1), netsim::shard_seed(124, 1));
}

// -------------------------------------------------------------- fleet

edgeai::FleetStudy::DelaySampler synthetic_hop(double shift_s, double mean_s) {
  const stats::ShiftedExponential hop{shift_s, mean_s};
  return [hop](Rng& rng) { return Duration::from_seconds_f(hop.sample(rng)); };
}

edgeai::FleetStudy::ServerSpec edge_spec(bool networked) {
  edgeai::FleetStudy::ServerSpec spec;
  spec.accelerator = edgeai::AcceleratorProfile::edge_gpu();
  spec.batching.max_batch = 8;
  spec.batching.batch_window = Duration::from_millis_f(1.0);
  spec.batching.queue_capacity = 64;
  spec.tier = edgeai::ExecutionTier::kEdge;
  if (networked) {
    spec.uplink = synthetic_hop(0.3e-3, 0.5e-3);
    spec.downlink = synthetic_hop(0.3e-3, 0.5e-3);
  }
  return spec;
}

edgeai::FleetStudy::Config pod_config(bool networked, std::uint64_t seed) {
  edgeai::FleetStudy::Config config;
  config.model = edgeai::ModelZoo::at("det-base");
  config.policy = edgeai::DispatchPolicy::kJoinShortestQueue;
  config.arrivals_per_second = 6000.0;
  config.requests = 10000;
  config.slo = Duration::from_millis_f(20.0);
  config.energy.uplink = DataRate::gbps(2);
  config.energy.downlink = DataRate::gbps(4);
  config.seed = seed;
  for (int i = 0; i < 3; ++i) config.servers.push_back(edge_spec(networked));
  return config;
}

TEST(ShardedFleet, OneShardDigestsIdenticalToSerialFleetStudy) {
  for (const bool networked : {true, false}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const auto config = pod_config(networked, seed);
      const auto serial = edgeai::FleetStudy::run(config);
      edgeai::ShardedFleetStudy::Config sharded;
      sharded.shard = config;
      sharded.shards = 1;
      sharded.window = Duration::millis(1);
      sharded.remote_fraction = 0.25;  // inert with one shard
      const auto windowed = edgeai::ShardedFleetStudy::run(sharded);
      EXPECT_EQ(edgeai::fleet_report_digest(serial),
                edgeai::fleet_report_digest(windowed))
          << "seed " << seed << (networked ? " networked" : " local");
      EXPECT_EQ(windowed.remote_requests, 0u);
    }
  }
}

edgeai::ShardedFleetStudy::Config city_config(std::uint64_t seed,
                                              unsigned workers) {
  edgeai::ShardedFleetStudy::Config config;
  config.shard = pod_config(true, seed);
  config.shard.requests = 8000;
  config.shards = 4;
  config.workers = workers;
  config.window = Duration::from_millis_f(1.5);
  config.remote_fraction = 0.25;
  // Inter-pod legs: 1.5 ms floor == the window (the tightest legal
  // sizing), exponential tail on top.
  config.remote_uplink = synthetic_hop(1.5e-3, 0.4e-3);
  config.remote_downlink = synthetic_hop(1.5e-3, 0.4e-3);
  return config;
}

TEST(ShardedFleet, MultiPodDigestsIdenticalAcrossWorkerCounts) {
  const auto reference = edgeai::ShardedFleetStudy::run(city_config(21, 1));
  const std::uint64_t want = edgeai::fleet_report_digest(reference);
  // Remote traffic must actually flow, and every request must resolve.
  EXPECT_GT(reference.remote_requests, 0u);
  EXPECT_GT(reference.mailbox_messages, 0u);
  EXPECT_EQ(reference.completed + reference.dropped, 4u * 8000u);
  EXPECT_EQ(reference.servers.size(), 12u);
  EXPECT_EQ(reference.servers[3].name.substr(0, 5), "pod1/");
  for (const unsigned workers : {2u, 4u, 8u}) {
    const auto report = edgeai::ShardedFleetStudy::run(city_config(21, workers));
    EXPECT_EQ(edgeai::fleet_report_digest(report), want)
        << "workers " << workers;
    EXPECT_EQ(report.remote_requests, reference.remote_requests);
    EXPECT_EQ(report.mailbox_messages, reference.mailbox_messages);
  }
}

TEST(ShardedFleet, NestedInASweepMatchesTheSerialDigest) {
  // Each sweep job runs a 4-worker city: its windows are batches nested
  // inside the sweep's batch on the one shared executor. Nothing may
  // deadlock, and every nested run digests like the 1-worker run.
  const std::uint64_t want = edgeai::fleet_report_digest(
      edgeai::ShardedFleetStudy::run(city_config(21, 1)));
  const netsim::ParallelRunner sweep{4};
  const auto digests = sweep.map<std::uint64_t>(8, [](std::size_t) {
    return edgeai::fleet_report_digest(
        edgeai::ShardedFleetStudy::run(city_config(21, 4)));
  });
  for (std::size_t i = 0; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i], want) << "sweep job " << i;
  }
}

TEST(ShardedFleet, DistinctSeedsAndShardCountsDiverge) {
  const auto a = edgeai::ShardedFleetStudy::run(city_config(5, 2));
  auto reseeded_config = city_config(6, 2);
  const auto b = edgeai::ShardedFleetStudy::run(reseeded_config);
  EXPECT_NE(edgeai::fleet_report_digest(a), edgeai::fleet_report_digest(b));
  auto fewer_pods = city_config(5, 2);
  fewer_pods.shards = 2;
  const auto c = edgeai::ShardedFleetStudy::run(fewer_pods);
  EXPECT_NE(edgeai::fleet_report_digest(a), edgeai::fleet_report_digest(c));
}

}  // namespace
}  // namespace sixg
