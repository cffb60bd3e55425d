// Observability-layer tests: the registry/scope plumbing, the probe
// macros' off-path, JSON schema round-trips, and — the property the
// whole design is built around — that turning metrics, tracing and
// sampling ON does not change a single byte of any simulation report,
// at any worker count.

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "edgeai/fleet.hpp"
#include "json_parser.hpp"
#include "netsim/parallel.hpp"
#include "obs/obs.hpp"
#include "stats/distributions.hpp"
#include "stats/histogram.hpp"
#include "stats/json.hpp"
#include "stats/reservoir.hpp"

namespace sixg {
namespace {

using testutil::JsonParser;
using testutil::JsonValue;

// ------------------------------------------------------------ fixtures

/// Every test leaves the process-wide runtime disabled, so unrelated
/// suites in the same binary never see live probes.
class ObsTest : public ::testing::Test {
 protected:
  void TearDown() override { obs::Runtime::instance().disable(); }
};

edgeai::FleetStudy::DelaySampler synthetic_hop(double shift_s, double mean_s) {
  const stats::ShiftedExponential hop{shift_s, mean_s};
  return [hop](Rng& rng) { return Duration::from_seconds_f(hop.sample(rng)); };
}

edgeai::FleetStudy::Config pod_config(std::uint64_t seed) {
  edgeai::FleetStudy::Config config;
  config.model = edgeai::ModelZoo::at("det-base");
  config.policy = edgeai::DispatchPolicy::kJoinShortestQueue;
  config.arrivals_per_second = 6000.0;
  config.requests = 4000;
  config.slo = Duration::from_millis_f(20.0);
  config.seed = seed;
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

edgeai::ShardedFleetStudy::Config city_config(std::uint64_t seed,
                                              unsigned workers) {
  edgeai::ShardedFleetStudy::Config config;
  config.shard = pod_config(seed);
  config.shard.requests = 3000;
  config.shards = 4;
  config.workers = workers;
  config.window = Duration::from_millis_f(1.5);
  config.remote_fraction = 0.25;
  config.remote_uplink = synthetic_hop(1.5e-3, 0.4e-3);
  config.remote_downlink = synthetic_hop(1.5e-3, 0.4e-3);
  return config;
}

obs::Config full_obs() {
  obs::Config config;
  config.metrics = true;
  config.trace = true;
  config.sample_every = Duration::from_millis_f(0.5);
  return config;
}

// --------------------------------------------------------------- units

TEST(LogHistogram, BucketsArePowersOfTwo) {
  EXPECT_EQ(obs::LogHistogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::LogHistogram::bucket_of(1), 1u);
  EXPECT_EQ(obs::LogHistogram::bucket_of(2), 2u);
  EXPECT_EQ(obs::LogHistogram::bucket_of(3), 2u);
  EXPECT_EQ(obs::LogHistogram::bucket_of(4), 3u);
  EXPECT_EQ(obs::LogHistogram::bucket_of(~std::uint64_t{0}), 64u);
  EXPECT_EQ(obs::LogHistogram::bucket_lo(0), 0u);
  EXPECT_EQ(obs::LogHistogram::bucket_lo(1), 1u);
  EXPECT_EQ(obs::LogHistogram::bucket_lo(5), 16u);

  obs::LogHistogram h;
  h.observe(0);
  h.observe(3);
  h.observe(3);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 6u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(2), 2u);

  obs::LogHistogram other;
  other.observe(4);
  h.merge(other);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bucket(3), 1u);
}

TEST(MetricSet, MergeSumsCountersAndMaxesGauges) {
  obs::MetricSet a;
  obs::MetricSet b;
  ASSERT_EQ(a.counters.size(), obs::counter_slots());
  a.counters[0] = 3;
  b.counters[0] = 4;
  b.gauges[0].value = 7.0;
  b.gauges[0].set = true;
  b.hists[0].observe(5);
  a.merge_from(b);
  EXPECT_EQ(a.counters[0], 7u);
  EXPECT_TRUE(a.gauges[0].set);
  EXPECT_DOUBLE_EQ(a.gauges[0].value, 7.0);
  EXPECT_EQ(a.hists[0].count(), 1u);

  // Max semantics: a larger already-set value survives the merge.
  obs::MetricSet c;
  c.gauges[0].value = 3.0;
  c.gauges[0].set = true;
  a.merge_from(c);
  EXPECT_DOUBLE_EQ(a.gauges[0].value, 7.0);
}

/// The `shard.shards` gauge of each scenario recorded since the last
/// configure(), in section order.
std::vector<double> shard_gauges(obs::Runtime& rt) {
  const JsonValue root = JsonParser{rt.metrics_json(false)}.parse();
  std::vector<double> out;
  for (const auto& s : root.object().at("scenarios").array()) {
    out.push_back(
        s.object().at("gauges").object().at("shard.shards").number());
  }
  return out;
}

TEST_F(ObsTest, GaugeKeepsTheLargestWriteWithinAndAcrossScopes) {
  auto& rt = obs::Runtime::instance();
  obs::Config metrics;
  metrics.metrics = true;
  rt.configure(metrics);

  rt.begin_scenario("one scope");
  SIXG_OBS_GAUGE(obs::Metric::kShardShards, 4.0);
  SIXG_OBS_GAUGE(obs::Metric::kShardShards, 2.0);
  rt.end_scenario();

  rt.begin_scenario("two scopes");
  SIXG_OBS_GAUGE(obs::Metric::kShardShards, 2.0);
  std::vector<obs::Scope> shards;
  shards.emplace_back(1, "shard 0");
  {
    const obs::ScopeBind bind(&shards[0]);
    SIXG_OBS_GAUGE(obs::Metric::kShardShards, 4.0);
  }
  rt.publish_shards(shards);
  rt.end_scenario();

  EXPECT_EQ(shard_gauges(rt), (std::vector<double>{4.0, 4.0}));
}

TEST(MetricRegistry, DefsAreDenselySlotted) {
  // Every metric id maps to a name and a slot within its kind's array.
  const auto& def = obs::metric_def(obs::Metric::kShardWindows);
  EXPECT_STREQ(def.name, "shard.windows");
  EXPECT_EQ(def.kind, obs::MetricKind::kCounter);
  EXPECT_LT(def.slot, obs::counter_slots());
  EXPECT_GT(obs::gauge_slots(), 0u);
  EXPECT_GT(obs::histogram_slots(), 0u);
  EXPECT_STREQ(obs::trace_name(obs::TraceName::kWindow), "window");
}

TEST_F(ObsTest, ProbesAreInertWhenDisabled) {
  // With the runtime never configured the macros must be safe no-ops —
  // this is the exact state library code runs in under normal tests.
  obs::Runtime::instance().disable();
  SIXG_OBS_COUNT(obs::Metric::kShardWindows, 1);
  SIXG_OBS_GAUGE(obs::Metric::kShardShards, 4.0);
  SIXG_OBS_HIST(obs::Metric::kHistDrainMessages, 3);
  SIXG_OBS_SPAN(obs::TraceName::kWindow, 0, 10, 0);
  SIXG_OBS_INSTANT(obs::TraceName::kDrain, 5, 1);
  EXPECT_FALSE(obs::metrics_on());
  EXPECT_FALSE(obs::trace_on());
}

// -------------------------------------------------- digest preservation

TEST_F(ObsTest, SerialFleetDigestUnchangedByFullObservability) {
  auto& rt = obs::Runtime::instance();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    rt.disable();
    const auto baseline = edgeai::FleetStudy::run(pod_config(seed));
    rt.configure(full_obs());
    rt.begin_scenario("serial-fleet");
    const auto instrumented = edgeai::FleetStudy::run(pod_config(seed));
    rt.end_scenario();
    EXPECT_EQ(edgeai::fleet_report_digest(baseline),
              edgeai::fleet_report_digest(instrumented))
        << "seed " << seed;
  }
}

TEST_F(ObsTest, ShardedFleetDigestUnchangedByFullObservability) {
  auto& rt = obs::Runtime::instance();
  for (const std::uint64_t seed : {1u, 21u}) {
    rt.disable();
    const auto baseline = edgeai::ShardedFleetStudy::run(city_config(seed, 1));
    const std::uint64_t want = edgeai::fleet_report_digest(baseline);
    for (const unsigned workers : {1u, 2u}) {
      rt.configure(full_obs());
      rt.begin_scenario("sharded-fleet");
      const auto report =
          edgeai::ShardedFleetStudy::run(city_config(seed, workers));
      rt.end_scenario();
      EXPECT_EQ(edgeai::fleet_report_digest(report), want)
          << "seed " << seed << " workers " << workers;
    }
  }
}

// ------------------------------------------------------- fault counter

/// The `fault.events` counter of the one scenario recorded since the
/// last configure() (absent = never counted).
double fault_events_counter(obs::Runtime& rt) {
  const JsonValue root = JsonParser{rt.metrics_json(false)}.parse();
  const auto& counters = root.object()
                             .at("scenarios")
                             .array()
                             .at(0)
                             .object()
                             .at("counters")
                             .object();
  const auto it = counters.find("fault.events");
  return it == counters.end() ? 0.0 : it->second.number();
}

TEST_F(ObsTest, FaultEventsCounterMatchesReport) {
  auto& rt = obs::Runtime::instance();
  obs::Config metrics;
  metrics.metrics = true;

  auto serial = pod_config(11);
  serial.faults.server_crash_rate_per_s = 2.0;
  serial.faults.server_mttr = Duration::millis(50);
  rt.configure(metrics);
  rt.begin_scenario("faulted-fleet");
  const auto report = edgeai::FleetStudy::run(serial);
  rt.end_scenario();
  EXPECT_GT(report.fault_events, 0u);
  EXPECT_EQ(fault_events_counter(rt), double(report.fault_events));

  for (const unsigned workers : {1u, 4u}) {
    auto city = city_config(11, workers);
    city.shard.faults = serial.faults;
    rt.configure(metrics);
    rt.begin_scenario("faulted-city");
    const auto sharded = edgeai::ShardedFleetStudy::run(city);
    rt.end_scenario();
    EXPECT_GT(sharded.fault_events, 0u) << "workers " << workers;
    EXPECT_EQ(fault_events_counter(rt), double(sharded.fault_events))
        << "workers " << workers;
  }
}

// ------------------------------------------- worker-count invariant JSON

TEST_F(ObsTest, MetricsJsonIsWorkerCountInvariant) {
  auto& rt = obs::Runtime::instance();
  std::string reference;
  for (const unsigned workers : {1u, 4u}) {
    rt.configure(full_obs());
    rt.begin_scenario("city");
    (void)edgeai::ShardedFleetStudy::run(city_config(9, workers));
    rt.end_scenario();
    // include_worker_profile=false: everything that remains is promised
    // to be a pure function of seed and shard count.
    const std::string json = rt.metrics_json(false);
    if (reference.empty()) {
      reference = json;
      // The document carries real content, not a vacuous match.
      EXPECT_NE(json.find("shard.windows"), std::string::npos);
      EXPECT_NE(json.find("fleet.inflight"), std::string::npos);
      EXPECT_NE(json.find("fleet.e2e_ms"), std::string::npos);
    } else {
      EXPECT_EQ(json, reference) << "workers " << workers;
    }
  }
}

TEST_F(ObsTest, TraceJsonIsWorkerCountInvariant) {
  auto& rt = obs::Runtime::instance();
  obs::Config config;
  config.trace = true;
  std::string reference;
  for (const unsigned workers : {1u, 2u}) {
    rt.configure(config);
    rt.begin_scenario("city");
    (void)edgeai::ShardedFleetStudy::run(city_config(5, workers));
    rt.end_scenario();
    const std::string json = rt.trace_json();
    if (reference.empty()) {
      reference = json;
    } else {
      EXPECT_EQ(json, reference) << "workers " << workers;
    }
  }
}

// ------------------------------------------------ concurrent recording

TEST_F(ObsTest, ConcurrentShardedRunsRecordAsOneAfterAnother) {
  // Three cities of one seed, so their pod-0 and pod-1 series and their
  // e2e distributions share labels, as city-serving-sharded's five
  // studies do. The largest city comes first: its shard-count gauge is
  // not the last one written.
  struct City {
    std::uint32_t shards;
    unsigned workers;
  };
  constexpr City kCities[] = {{4, 4}, {2, 1}, {3, 2}};
  auto& rt = obs::Runtime::instance();
  const auto record = [&](unsigned threads) {
    rt.configure(full_obs());
    rt.begin_scenario("cities");
    const auto digests = netsim::ParallelRunner{threads}.map<std::uint64_t>(
        std::size(kCities), [&](std::size_t i) {
          auto config = city_config(13, kCities[i].workers);
          config.shards = kCities[i].shards;
          return edgeai::fleet_report_digest(
              edgeai::ShardedFleetStudy::run(config));
        });
    rt.end_scenario();
    return std::pair{rt.metrics_json(false), digests};
  };
  const auto serial = record(1);
  const auto batch = record(3);
  EXPECT_EQ(batch.second, serial.second);
  EXPECT_EQ(batch.first, serial.first);
  EXPECT_EQ(shard_gauges(rt), std::vector<double>{4.0});
}

// ------------------------------------------------------- JSON schemas

TEST_F(ObsTest, MetricsJsonParsesWithExpectedSchema) {
  auto& rt = obs::Runtime::instance();
  rt.configure(full_obs());
  rt.begin_scenario("city");
  (void)edgeai::ShardedFleetStudy::run(city_config(3, 2));
  rt.end_scenario();

  const JsonValue root = JsonParser{rt.metrics_json()}.parse();
  const auto& doc = root.object();
  EXPECT_EQ(doc.at("version").number(), 1.0);
  const auto& scenarios = doc.at("scenarios").array();
  ASSERT_EQ(scenarios.size(), 1u);
  const auto& s = scenarios[0].object();
  EXPECT_EQ(s.at("name").str(), "city");
  EXPECT_GT(s.at("counters").object().at("shard.windows").number(), 0.0);
  EXPECT_GT(s.at("counters").object().at("fleet.completed").number(), 0.0);
  EXPECT_EQ(s.at("gauges").object().at("shard.shards").number(), 4.0);
  const auto& batch = s.at("histograms").object().at("serve.batch_size");
  EXPECT_GT(batch.object().at("count").number(), 0.0);
  EXPECT_FALSE(batch.object().at("buckets").array().empty());
  ASSERT_FALSE(s.at("series").array().empty());
  const auto& series = s.at("series").array()[0].object();
  EXPECT_FALSE(series.at("name").str().empty());
  EXPECT_GT(series.at("count").number(), 0.0);
  EXPECT_FALSE(series.at("points").array().empty());
  ASSERT_FALSE(s.at("distributions").array().empty());
  // Worker profiles exist for the parallel pool and vanish from the
  // deterministic view.
  EXPECT_FALSE(s.at("workers").array().empty());
  const JsonValue det = JsonParser{rt.metrics_json(false)}.parse();
  EXPECT_EQ(
      det.object().at("scenarios").array()[0].object().count("workers"), 0u);
}

// `pool` numbers a section's sharded runs in the order they finished,
// so each worker row also names its run: two runs of different shard
// counts, worker caps and seeds export rows labelled with their own.
TEST_F(ObsTest, WorkerRowsCarryTheirRunsConfig) {
  auto four_pods = city_config(21, 2);
  auto two_pods = city_config(22, 3);
  two_pods.shards = 2;
  auto& rt = obs::Runtime::instance();
  rt.configure(full_obs());
  rt.begin_scenario("two cities");
  (void)edgeai::ShardedFleetStudy::run(four_pods);
  (void)edgeai::ShardedFleetStudy::run(two_pods);
  rt.end_scenario();

  const JsonValue root = JsonParser{rt.metrics_json()}.parse();
  const auto& rows = root.object()
                         .at("scenarios")
                         .array()[0]
                         .object()
                         .at("workers")
                         .array();
  // pool -> (shards, worker cap, seed) of every row of that pool.
  std::map<double, std::tuple<double, double, double>> labels;
  for (const auto& row : rows) {
    const auto& r = row.object();
    const std::tuple label{r.at("shards").number(),
                           r.at("worker_cap").number(),
                           r.at("seed").number()};
    const auto [it, fresh] = labels.emplace(r.at("pool").number(), label);
    EXPECT_EQ(it->second, label) << "one pool, two labels";
    EXPECT_LT(r.at("worker").number(), std::get<1>(label));
  }
  std::set<std::tuple<double, double, double>> runs;
  for (const auto& [pool, label] : labels) runs.insert(label);
  EXPECT_EQ(runs, (std::set<std::tuple<double, double, double>>{
                      {4.0, 2.0, 21.0}, {2.0, 3.0, 22.0}}));

  // The labels live in the wall-clock rows only.
  EXPECT_EQ(rt.metrics_json(false).find("worker_cap"), std::string::npos);
}

TEST_F(ObsTest, TraceJsonParsesAsChromeTraceEvents) {
  auto& rt = obs::Runtime::instance();
  obs::Config config;
  config.trace = true;
  rt.configure(config);
  rt.begin_scenario("city");
  (void)edgeai::ShardedFleetStudy::run(city_config(3, 2));
  rt.end_scenario();

  const JsonValue root = JsonParser{rt.trace_json()}.parse();
  const auto& doc = root.object();
  EXPECT_EQ(doc.at("displayTimeUnit").str(), "ms");
  const auto& events = doc.at("traceEvents").array();
  ASSERT_FALSE(events.empty());
  bool saw_span = false;
  bool saw_instant = false;
  bool saw_meta = false;
  for (const auto& ev : events) {
    const auto& e = ev.object();
    const std::string& ph = e.at("ph").str();
    ASSERT_TRUE(e.count("pid") != 0 && e.count("name") != 0);
    if (ph == "X") {
      saw_span = true;
      EXPECT_GE(e.at("dur").number(), 0.0);
      EXPECT_GE(e.at("ts").number(), 0.0);
    } else if (ph == "i") {
      saw_instant = true;
      EXPECT_EQ(e.at("s").str(), "t");
    } else if (ph == "M") {
      saw_meta = true;
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_meta);
}

// --------------------------------------------- stats JSON (satellite b)

TEST(StatsJson, NonFiniteValuesRoundTrip) {
  std::string out;
  stats::json::append_number(out, std::nan(""));
  out.push_back(',');
  stats::json::append_number(out, HUGE_VAL);
  out.push_back(',');
  stats::json::append_number(out, -HUGE_VAL);
  EXPECT_EQ(out, "\"NaN\",\"Infinity\",\"-Infinity\"");
  double v = 0.0;
  ASSERT_TRUE(stats::json::parse_non_finite("NaN", &v));
  EXPECT_TRUE(std::isnan(v));
  ASSERT_TRUE(stats::json::parse_non_finite("Infinity", &v));
  EXPECT_EQ(v, HUGE_VAL);
  ASSERT_TRUE(stats::json::parse_non_finite("-Infinity", &v));
  EXPECT_EQ(v, -HUGE_VAL);
  EXPECT_FALSE(stats::json::parse_non_finite("nan", &v));
  EXPECT_FALSE(stats::json::parse_non_finite("", &v));
}

TEST(StatsJson, HistogramToJsonEscapesNonFiniteSamples) {
  stats::Histogram h{0.0, 10.0, 5};
  h.add(1.0);
  h.add(HUGE_VAL);       // -> overflow, not a crash or a bad bin
  h.add(-HUGE_VAL);      // -> underflow
  h.add(std::nan(""));   // -> underflow by convention (not comparable)
  const std::string json = [&] {
    std::string out;
    h.to_json(out);
    return out;
  }();
  const JsonValue root = JsonParser{json}.parse();  // strict: throws on NaN
  const auto& doc = root.object();
  EXPECT_EQ(doc.at("count").number(), 4.0);
  EXPECT_EQ(doc.at("overflow").number(), 1.0);
  EXPECT_EQ(doc.at("underflow").number(), 2.0);
  EXPECT_EQ(doc.at("bins").array().size(), 5u);
}

TEST(StatsJson, ReservoirToJsonHandlesEmptyAndExact) {
  stats::ReservoirQuantile empty{16, 1};
  std::string json;
  empty.to_json(json);
  const JsonValue root = JsonParser{json}.parse();
  EXPECT_EQ(root.object().at("count").number(), 0.0);
  EXPECT_TRUE(root.object().at("exact").boolean());
  // Empty quantiles encode as the quoted NaN sentinel, never a bare
  // token — the strict parse above is the real assertion.
  double p50 = 0.0;
  ASSERT_TRUE(stats::json::parse_non_finite(
      root.object().at("q").object().at("p50").str(), &p50));
  EXPECT_TRUE(std::isnan(p50));

  stats::ReservoirQuantile filled{16, 1};
  for (int i = 1; i <= 9; ++i) filled.add(double(i));
  json.clear();
  filled.to_json(json);
  const JsonValue f = JsonParser{json}.parse();
  EXPECT_EQ(f.object().at("count").number(), 9.0);
  EXPECT_DOUBLE_EQ(f.object().at("q").object().at("p50").number(), 5.0);
}

// ------------------------------------------------------------- sampler

TEST_F(ObsTest, SamplerSeriesAreDeterministic) {
  auto& rt = obs::Runtime::instance();
  std::string reference;
  for (int run = 0; run < 2; ++run) {
    rt.configure(full_obs());
    rt.begin_scenario("serial");
    (void)edgeai::FleetStudy::run(pod_config(7));
    rt.end_scenario();
    const std::string json = rt.metrics_json(false);
    EXPECT_NE(json.find("fleet.queue_depth"), std::string::npos);
    EXPECT_NE(json.find("fleet.slo_attainment"), std::string::npos);
    if (run == 0) {
      reference = json;
    } else {
      EXPECT_EQ(json, reference);
    }
  }
}

}  // namespace
}  // namespace sixg
