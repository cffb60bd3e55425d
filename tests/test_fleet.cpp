#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/campaign.hpp"
#include "core/registry.hpp"
#include "core/scenarios.hpp"
#include "edgeai/fleet.hpp"
#include "stats/distributions.hpp"

namespace sixg::edgeai {
namespace {

FleetStudy::DelaySampler synthetic_hop(double shift_s, double mean_s) {
  const stats::ShiftedExponential hop{shift_s, mean_s};
  return [hop](Rng& rng) { return Duration::from_seconds_f(hop.sample(rng)); };
}

FleetStudy::ServerSpec edge_spec() {
  FleetStudy::ServerSpec spec;
  spec.accelerator = AcceleratorProfile::edge_gpu();
  spec.batching.max_batch = 8;
  spec.batching.batch_window = Duration::from_millis_f(1.0);
  spec.batching.queue_capacity = 64;
  spec.tier = ExecutionTier::kEdge;
  spec.uplink = synthetic_hop(0.3e-3, 0.5e-3);
  spec.downlink = synthetic_hop(0.3e-3, 0.5e-3);
  return spec;
}

FleetStudy::ServerSpec cloud_spec() {
  FleetStudy::ServerSpec spec;
  spec.name = "cloud";
  spec.accelerator = AcceleratorProfile::cloud_gpu();
  spec.batching.max_batch = 32;
  spec.batching.batch_window = Duration::from_millis_f(2.0);
  spec.batching.queue_capacity = 256;
  spec.tier = ExecutionTier::kCloud;
  spec.uplink = synthetic_hop(12.0e-3, 2.0e-3);  // the WAN leg
  spec.downlink = synthetic_hop(12.0e-3, 2.0e-3);
  return spec;
}

FleetStudy::Config make_config(std::size_t edges, DispatchPolicy policy,
                               std::uint64_t seed) {
  FleetStudy::Config config;
  config.model = ModelZoo::at("det-base");
  config.policy = policy;
  config.arrivals_per_second = 6000.0;
  config.requests = 20000;
  config.slo = Duration::from_millis_f(20.0);
  // 6G-class access: without it the det-base payload alone spends 19 ms
  // of airtime on the default 75 Mbps uplink and nothing meets the SLO.
  config.energy.uplink = DataRate::gbps(2);
  config.energy.downlink = DataRate::gbps(4);
  config.seed = seed;
  for (std::size_t i = 0; i < edges; ++i) config.servers.push_back(edge_spec());
  return config;
}

TEST(FleetStudy, ConservesRequestsAndAggregatesServers) {
  const auto report = FleetStudy::run(
      make_config(3, DispatchPolicy::kJoinShortestQueue, 11));
  EXPECT_EQ(report.completed + report.dropped, 20000u);
  EXPECT_LE(report.within_slo, report.completed);
  ASSERT_EQ(report.servers.size(), 3u);
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t dispatched = 0;
  for (const auto& s : report.servers) {
    completed += s.completed;
    dropped += s.dropped;
    dispatched += s.dispatched;
    EXPECT_EQ(s.tier, ExecutionTier::kEdge);
  }
  EXPECT_EQ(completed, report.completed);
  EXPECT_EQ(dropped, report.dropped);
  EXPECT_EQ(dispatched, 20000u);
  ASSERT_TRUE(report.e2e_hist.has_value());
  EXPECT_EQ(report.e2e_hist->count(), report.completed);
  EXPECT_EQ(report.e2e_q.count(), report.completed);
}

TEST(FleetStudy, DeterministicForFixedSeed) {
  const auto config = make_config(4, DispatchPolicy::kTierAffine, 23);
  const auto a = FleetStudy::run(config);
  const auto b = FleetStudy::run(config);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.within_slo, b.within_slo);
  EXPECT_EQ(a.e2e_ms.mean(), b.e2e_ms.mean());
  EXPECT_EQ(a.e2e_q.quantile(0.99), b.e2e_q.quantile(0.99));
  EXPECT_EQ(a.mean_energy.wait_j, b.mean_energy.wait_j);
  for (std::size_t k = 0; k < a.servers.size(); ++k) {
    EXPECT_EQ(a.servers[k].dispatched, b.servers[k].dispatched) << k;
  }
  auto reseeded = config;
  reseeded.seed = 24;
  const auto c = FleetStudy::run(reseeded);
  EXPECT_NE(a.e2e_ms.mean(), c.e2e_ms.mean());
}

TEST(FleetStudy, RoundRobinDispatchesEvenly) {
  const auto report =
      FleetStudy::run(make_config(4, DispatchPolicy::kRoundRobin, 5));
  for (const auto& s : report.servers) {
    EXPECT_EQ(s.dispatched, 5000u) << s.name;  // 20000 over 4, exactly
  }
}

TEST(FleetStudy, JoinShortestQueueBeatsRoundRobinOnHeterogeneousFleet) {
  // Two edge GPUs plus a device NPU: round-robin blindly sends a third
  // of the city load to the NPU (which saturates and drops); JSQ routes
  // by observed load.
  auto config = make_config(2, DispatchPolicy::kRoundRobin, 31);
  FleetStudy::ServerSpec npu;
  npu.accelerator = AcceleratorProfile::device_npu();
  npu.batching.max_batch = 1;
  npu.batching.queue_capacity = 16;
  npu.tier = ExecutionTier::kDevice;
  config.servers.push_back(npu);
  const auto rr = FleetStudy::run(config);
  config.policy = DispatchPolicy::kJoinShortestQueue;
  const auto jsq = FleetStudy::run(config);
  EXPECT_GT(rr.dropped, jsq.dropped);
  EXPECT_GT(jsq.slo_attainment(), rr.slo_attainment());
}

TEST(FleetStudy, TierAffineKeepsLightLoadOnTheEdge) {
  auto config = make_config(3, DispatchPolicy::kTierAffine, 41);
  config.arrivals_per_second = 2000.0;  // well under three GPUs' capacity
  config.requests = 10000;
  config.servers.push_back(cloud_spec());
  const auto report = FleetStudy::run(config);
  EXPECT_EQ(report.servers.back().dispatched, 0u);  // cloud never touched

  // Overload the edge tier: the spill threshold kicks in and the cloud
  // backstop absorbs traffic instead of the queues dropping it all.
  config.arrivals_per_second = 20000.0;
  config.requests = 20000;
  const auto saturated = FleetStudy::run(config);
  EXPECT_GT(saturated.servers.back().dispatched, 0u);
}

TEST(FleetStudy, ThreadCountDoesNotChangeCampaignResults) {
  // A FleetStudy sweep replicated over core::Campaign must be invariant
  // to the worker thread count (the scenario determinism contract).
  const auto sweep_means = [](unsigned threads) {
    core::RunContext ctx;
    ctx.seed = 13;
    ctx.threads = threads;
    const core::Campaign campaign{ctx, 0xf1ee7};
    return campaign.sweep<double>(6, [](std::size_t point,
                                        std::uint64_t seed) {
      const auto report = FleetStudy::run(make_config(
          1 + point % 3,
          point % 2 == 0 ? DispatchPolicy::kJoinShortestQueue
                         : DispatchPolicy::kTierAffine,
          seed));
      return report.e2e_ms.mean() + double(report.dropped) +
             report.e2e_q.quantile(0.99);
    });
  };
  const auto serial = sweep_means(1);
  EXPECT_EQ(serial, sweep_means(2));
  EXPECT_EQ(serial, sweep_means(4));
}

// ------------------------------------------- SLO classes & continuous mode

/// The equivalence pin of the continuous-batching PR: window-mode digests
/// captured from the tree immediately BEFORE priority lanes, SLO classes
/// and the continuous scheduler landed. A classless window-mode config
/// must keep producing these exact reports forever — the features are
/// zero-cost and zero-effect unless configured.
TEST(FleetStudy, WindowModeDigestsMatchPreLanePin) {
  struct Pin {
    std::uint64_t seed;
    std::uint64_t digest;
  };
  static constexpr Pin kNetworked[] = {
      {1, 0x46d86929837e6b40ull},          {2, 0xc7f9af239d42b7a9ull},
      {3, 0xd2366f21e1bfc11aull},          {5, 0xbf58bae2577d837aull},
      {17, 0xd49d4ab3b80fa257ull},         {42, 0x3bc4a12f10de7b06ull},
      {1234, 0x4f6b5945d4c0c12cull},       {0xdecafbad, 0x78eba63fbff653caull},
  };
  static constexpr Pin kLocal[] = {
      {1, 0xa9545a4cff2c7d49ull},          {2, 0xb8eb47efbad0fa92ull},
      {3, 0x326f850c01b72033ull},          {5, 0xf65bbba90ab6db09ull},
      {17, 0xa43a0dfccbc2c95bull},         {42, 0x81a76bc01aaecbb4ull},
      {1234, 0x9f724f6b551b40b1ull},       {0xdecafbad, 0x6081f2ef556dee0bull},
  };
  for (const bool networked : {true, false}) {
    for (const auto& pin : networked ? kNetworked : kLocal) {
      auto config = make_config(3, DispatchPolicy::kJoinShortestQueue,
                                pin.seed);
      if (!networked) {
        for (auto& spec : config.servers) {
          spec.uplink = {};
          spec.downlink = {};
        }
      }
      const auto report = FleetStudy::run(config);
      EXPECT_EQ(fleet_report_digest(report), pin.digest)
          << (networked ? "networked" : "local") << " seed " << pin.seed;
      EXPECT_TRUE(report.classes.empty());
    }
  }
  // Sharded variant: remote legs, mailboxes and the merge path.
  static constexpr Pin kSharded[] = {{1, 0x4f7105e6b5d73282ull},
                                     {42, 0x974f65e7f7d5a485ull}};
  for (const auto& pin : kSharded) {
    ShardedFleetStudy::Config config;
    config.shard = make_config(3, DispatchPolicy::kJoinShortestQueue,
                               pin.seed);
    config.shards = 4;
    config.workers = 1;
    config.window = Duration::from_millis_f(1.0);
    config.remote_fraction = 0.25;
    config.remote_uplink = synthetic_hop(1.0e-3, 0.5e-3);
    config.remote_downlink = synthetic_hop(1.0e-3, 0.5e-3);
    const auto report = ShardedFleetStudy::run(config);
    EXPECT_EQ(fleet_report_digest(report), pin.digest)
        << "sharded seed " << pin.seed;
  }
}

TEST(FleetReport, SloAttainmentCountsFailuresInDenominator) {
  // The documented contract of Report::slo_attainment(): the denominator
  // is settled requests — delivered plus failed — because a shed, timed
  // out or dropped request misses the SLO too.
  FleetStudy::Report r;
  for (int i = 0; i < 6; ++i) r.e2e_ms.add(5.0);  // delivered
  r.within_slo = 4;
  r.failed = 2;
  EXPECT_DOUBLE_EQ(r.slo_attainment(), 4.0 / 8.0);
  EXPECT_DOUBLE_EQ(r.availability(), 6.0 / 8.0);
  const FleetStudy::Report empty;
  EXPECT_DOUBLE_EQ(empty.slo_attainment(), 0.0);
  EXPECT_DOUBLE_EQ(empty.availability(), 1.0);
  FleetStudy::Report::ClassStats cs;
  cs.delivered = 6;
  cs.within_slo = 4;
  cs.failed = 2;
  EXPECT_DOUBLE_EQ(cs.slo_attainment(), 0.5);
}

/// Two-class continuous-batching fleet pushed into contention: the
/// workload the thread/worker-invariance and attribution tests share.
FleetStudy::Config classed_config(std::uint64_t seed) {
  auto config = make_config(3, DispatchPolicy::kJoinShortestQueue, seed);
  config.arrivals_per_second = 11000.0;  // ~90% of three edge GPUs
  for (auto& spec : config.servers) {
    spec.batching.continuous = true;
    spec.batching.lanes = 2;
  }
  FleetStudy::SloClassSpec interactive;
  interactive.name = "interactive";
  interactive.share = 0.4;
  FleetStudy::SloClassSpec batch;
  batch.name = "batch";
  batch.share = 0.6;
  batch.slo = Duration::from_millis_f(60.0);
  batch.lane = 1;
  batch.shed_queue_depth = 96;
  config.classes = {interactive, batch};
  return config;
}

TEST(FleetStudy, ContinuousClassesInvariantAcrossThreadsAndWorkers) {
  // Serial engine under core::Campaign: the digest of every sweep point
  // must not move with the worker thread count.
  const auto sweep_digests = [](unsigned threads) {
    core::RunContext ctx;
    ctx.seed = 29;
    ctx.threads = threads;
    const core::Campaign campaign{ctx, 0xc1a55e5};
    return campaign.sweep<std::uint64_t>(
        4, [](std::size_t point, std::uint64_t seed) {
          auto config = classed_config(seed);
          config.requests = 10000 + 1000 * std::uint32_t(point);
          return fleet_report_digest(FleetStudy::run(config));
        });
  };
  const auto serial = sweep_digests(1);
  EXPECT_EQ(serial, sweep_digests(2));
  EXPECT_EQ(serial, sweep_digests(4));

  // Sharded engine: same template behind inter-pod legs; the merged
  // report (including the per-class rows) is worker-count invariant.
  const auto sharded_digest = [](unsigned workers) {
    ShardedFleetStudy::Config config;
    config.shard = classed_config(7);
    config.shard.requests = 8000;
    config.shards = 4;
    config.workers = workers;
    config.window = Duration::from_millis_f(1.0);
    config.remote_fraction = 0.25;
    config.remote_uplink = synthetic_hop(1.0e-3, 0.5e-3);
    config.remote_downlink = synthetic_hop(1.0e-3, 0.5e-3);
    const auto report = ShardedFleetStudy::run(config);
    EXPECT_EQ(report.classes.size(), 2u);
    return fleet_report_digest(report);
  };
  EXPECT_EQ(sharded_digest(1), sharded_digest(8));
}

TEST(FleetStudy, ClassDeadlineFiresAcrossContinuousReformation) {
  // A per-class deadline arms a deadline timer even with
  // ResilienceConfig::deadline zero, and the deadline timers interact
  // with continuous batch re-formation: an overloaded continuous server
  // keeps launching batches while queued requests expire mid-wait.
  auto config = make_config(1, DispatchPolicy::kJoinShortestQueue, 9);
  config.arrivals_per_second = 12000.0;  // ~3x one edge GPU
  config.requests = 8000;
  config.servers[0].batching.continuous = true;
  FleetStudy::SloClassSpec cls;
  cls.name = "deadline";
  cls.deadline = Duration::from_millis_f(10.0);
  config.classes = {cls};
  const auto report = FleetStudy::run(config);
  ASSERT_EQ(report.classes.size(), 1u);
  const auto& cs = report.classes[0];
  EXPECT_EQ(cs.offered, 8000u);
  EXPECT_GT(cs.timed_out, 0u);    // expiries while queued behind batches
  EXPECT_GT(cs.delivered, 0u);    // early arrivals still make it
  EXPECT_EQ(cs.timed_out, report.timed_out);
  EXPECT_EQ(cs.delivered + cs.failed, cs.offered);  // every request settles
  EXPECT_LE(cs.within_slo, cs.delivered);
}

TEST(FleetStudy, ShedAndQueueFullAttributionAreDistinct) {
  // Same 2x-overload, with and without the class admission bound: the
  // bound converts uncontrolled ring-full drops into counted sheds, and
  // the two counters never blur into each other.
  auto config = make_config(2, DispatchPolicy::kJoinShortestQueue, 77);
  config.arrivals_per_second = 16000.0;
  config.requests = 10000;
  for (auto& spec : config.servers) spec.batching.continuous = true;
  FleetStudy::SloClassSpec cls;
  cls.name = "std";
  config.classes = {cls};

  const auto uncontrolled = FleetStudy::run(config);
  ASSERT_EQ(uncontrolled.classes.size(), 1u);
  EXPECT_GT(uncontrolled.classes[0].dropped_queue_full, 0u);
  EXPECT_EQ(uncontrolled.classes[0].shed, 0u);
  EXPECT_EQ(uncontrolled.shed, 0u);
  EXPECT_EQ(uncontrolled.classes[0].dropped_queue_full, uncontrolled.dropped);

  config.classes[0].shed_queue_depth = 64;  // < the 2x64 ring capacity
  const auto shedding = FleetStudy::run(config);
  ASSERT_EQ(shedding.classes.size(), 1u);
  EXPECT_GT(shedding.classes[0].shed, 0u);
  EXPECT_EQ(shedding.classes[0].shed, shedding.shed);
  EXPECT_EQ(shedding.classes[0].dropped_queue_full, 0u);  // bound holds
}

TEST(FleetStudy, ArrivalShapeIsDeterministicAndModulatesLoad) {
  auto config = make_config(3, DispatchPolicy::kJoinShortestQueue, 15);
  const auto flat = FleetStudy::run(config);
  config.shape.diurnal_amplitude = 0.5;
  config.shape.diurnal_period = Duration::from_seconds_f(2.0);
  config.shape.flash_multiplier = 2.0;
  config.shape.flash_every = Duration::from_millis_f(500.0);
  config.shape.flash_duration = Duration::from_millis_f(50.0);
  ASSERT_TRUE(config.shape.active());
  const auto a = FleetStudy::run(config);
  const auto b = FleetStudy::run(config);
  EXPECT_EQ(fleet_report_digest(a), fleet_report_digest(b));
  EXPECT_NE(fleet_report_digest(a), fleet_report_digest(flat));
  // The shape modulates *when* requests arrive, never how many.
  EXPECT_EQ(a.completed + a.dropped, 20000u);
}

TEST(FleetScenarios, RegisteredAndDeterministic) {
  core::ScenarioRegistry registry;
  core::register_paper_scenarios(registry);
  for (const char* name :
       {"city-serving", "fleet-dispatch-ablation", "continuous-vs-window",
        "overload-ladder", "priority-mix-sweep"}) {
    ASSERT_TRUE(registry.contains(name)) << name;
  }
  // The ablation grid is the cheaper of the two; run it across thread
  // counts (city-serving's determinism is covered by the same engine +
  // Campaign plumbing and its CI smoke run).
  const core::Scenario* s = registry.find("fleet-dispatch-ablation");
  ASSERT_NE(s, nullptr);
  core::RunContext serial;
  serial.seed = 3;
  serial.threads = 1;
  core::RunContext wide = serial;
  wide.threads = 4;
  const auto baseline = render(*s, s->run(serial));
  EXPECT_EQ(baseline, render(*s, s->run(serial)));
  EXPECT_EQ(baseline, render(*s, s->run(wide)));
}

}  // namespace
}  // namespace sixg::edgeai
