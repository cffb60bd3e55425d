// sixg_e2ebench — the end-to-end benchmark's measurement program.
//
// Links libsixg and calls the library's public entry points the way a user
// of the reproduction does: the scenario registry (`sixg_run --run all`),
// fleet studies, the topology builder and compiler, the NetLeg sampling
// lane and the QoS xApp. It times them on the host and
// writes one JSON document of raw measurements — per-operation wall and CPU
// time, report summaries, digests, layer spans and obs counters — which
// run.py turns into the benchmark result. Every simulated quantity is a
// pure function of --seed; only the host timings vary between runs.
//
// usage: sixg_e2ebench --workload W --seed N --seconds S --trace 0|1
//                      --out PATH

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "core/registry.hpp"
#include "core/scenario.hpp"
#include "core/scenarios.hpp"
#include "edgeai/fleet.hpp"
#include "edgeai/net_leg.hpp"
#include "obs/obs.hpp"
#include "oran/qos_xapp.hpp"
#include "radio/link_model.hpp"
#include "stats/fast_math.hpp"
#include "stats/json.hpp"
#include "topo/europe.hpp"

#ifndef SIXG_BENCH_BUILD_TYPE
#define SIXG_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace sixg;
namespace js = stats::json;

// ------------------------------------------------------------ workloads
//
// Sizes are chosen so one study call takes about half a second of host
// time on a 4-vCPU x86-64 host: long enough that one call's wall time is
// stable, short enough that a run holds dozens of calls to take the
// fastest of.

constexpr double kCityLoad = 12000.0;        // det-base req/s per pod
constexpr std::uint32_t kCityRequests = 1000000;
constexpr std::uint32_t kEdgeGpus = 3;       // the city-serving "tight" pod
constexpr double kEdgeGpuCapacity = 4700.0;  // det-base req/s at batch 16
constexpr std::uint32_t kOverloadRequests = 1000000;
// fig2 replicas behind rtl_err_ms: enough that the figure describes the
// latency model rather than one seed's drive test.
constexpr std::uint32_t kRtlReplicas = 256;
// Untimed fleet study calls before the timed phase (about 2 s), so it
// starts on a warm process and a CPU that has left its idle state. The
// suite warms up with one pass.
constexpr int kFleetWarmupCalls = 4;
// Typical host seconds of one call on a shared 4-vCPU x86-64 host. A phase
// makes --seconds / call seconds calls: a fixed count, so a faster program
// gets no more samples than a slower one, and its fastest call compares.
constexpr double kSuiteCallSeconds = 4.6;
constexpr double kCityCallSeconds = 0.6;
constexpr double kOverloadCallSeconds = 0.7;
// One build of the world takes about 0.1 ms. A set-up sample times a batch
// of builds, so it lasts milliseconds; the samples are spread over the
// timed phase, so the fastest of them, like the fastest call, is taken
// when the host was calm.
constexpr int kSetupBatch = 16;
constexpr int kSetupSamples = 32;

// ------------------------------------------------------------- helpers

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t t0_ns) {
  return double(now_ns() - t0_ns) * 1e-9;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// CPUs this process may run on.
unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return unsigned(std::max(1, CPU_COUNT(&set)));
  return std::max(1u, std::thread::hardware_concurrency());
}

std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Builds one JSON object field by field.
class JsonObject {
 public:
  JsonObject& u64(const char* name, std::uint64_t v) {
    js::append_u64(key(name), v);
    return *this;
  }
  JsonObject& num(const char* name, double v) {
    js::append_number(key(name), v);
    return *this;
  }
  JsonObject& str(const char* name, std::string_view v) {
    js::append_string(key(name), v);
    return *this;
  }
  /// `json` must already be a JSON value.
  JsonObject& raw(const char* name, std::string_view json) {
    key(name) += json;
    return *this;
  }
  [[nodiscard]] std::string done() const { return out_ + "}"; }

 private:
  std::string& key(const char* name) {
    if (out_.size() > 1) out_ += ",";
    js::append_string(out_, name);
    out_ += ":";
    return out_;
  }
  std::string out_ = "{";
};

/// A JSON array of `items`, each rendered by `item(out, element)`.
template <class Range, class F>
std::string json_array(const Range& items, F item) {
  std::string out = "[";
  for (const auto& element : items) {
    if (out.size() > 1) out += ",";
    item(out, element);
  }
  return out + "]";
}

// ---------------------------------------------------------------- spans

/// In-memory span log: one record per call into a layer, with the span
/// that was open when it started as its parent. Off outside the traced
/// run, where open() returns -1 and close() does nothing.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };

  explicit SpanLog(bool on) : on_(on) {}

  int open(std::string name) {
    if (!on_) return -1;
    const int id = int(spans_.size());
    spans_.push_back(
        {std::move(name), now_ns(), 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[std::size_t(id)].end_ns = now_ns();
    stack_.pop_back();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class SpanGuard {
 public:
  SpanGuard(SpanLog& log, std::string name)
      : log_(log), id_(log.open(std::move(name))) {}
  ~SpanGuard() { log_.close(id_); }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

// ---------------------------------------------------------------- world

/// Everything built before timing starts: the scenario registry, the
/// radio cell, the peered 6G topology, its compiled edge path, and the
/// study configs. Every workload builds the same world,
/// so setup_s compares like with like across workloads. Not copyable:
/// the NetLegs in the configs borrow `access`.
struct World {
  World(std::uint64_t seed, SpanLog& spans);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  core::ScenarioRegistry registry;
  radio::RadioLinkModel access{radio::AccessProfile::sixg()};
  radio::CellConditions cell{};
  topo::CompiledPath edge_path;
  edgeai::FleetStudy::Config city;
  edgeai::FleetStudy::Config overload;
};

edgeai::FleetStudy::ServerSpec edge_server(const World& w) {
  edgeai::FleetStudy::ServerSpec spec;
  spec.accelerator = edgeai::AcceleratorProfile::edge_gpu();
  spec.batching.max_batch = 16;
  spec.batching.batch_window = Duration::from_millis_f(1.0);
  spec.batching.queue_capacity = 256;
  spec.tier = edgeai::ExecutionTier::kEdge;
  spec.uplink = edgeai::NetLeg::radio_then_path(w.access, w.cell, w.edge_path);
  spec.downlink =
      edgeai::NetLeg::path_then_radio(w.access, w.cell, w.edge_path);
  return spec;
}

/// det-base over `gpus` edge GPUs, JSQ, 20 ms SLO: the city-serving pod.
edgeai::FleetStudy::Config city_pod(const World& w, std::uint64_t seed,
                                    std::uint32_t gpus, double load,
                                    std::uint32_t requests) {
  edgeai::FleetStudy::Config c;
  c.model = edgeai::ModelZoo::at("det-base");
  c.policy = edgeai::DispatchPolicy::kJoinShortestQueue;
  c.arrivals_per_second = load;
  c.requests = requests;
  c.slo = Duration::from_millis_f(20.0);
  c.energy.uplink = DataRate::gbps(2);
  c.energy.downlink = DataRate::gbps(4);
  c.seed = seed;
  for (std::uint32_t s = 0; s < gpus; ++s) c.servers.push_back(edge_server(w));
  return c;
}

/// Two edge GPUs at 1.5x capacity under a diurnal + flash-crowd day, with
/// continuous batching, two SLO classes on two lanes, deadlines, retries
/// with backoff, hedging, and server crashes and stragglers: every branch
/// of the hardened request path.
edgeai::FleetStudy::Config overload_fleet(const World& w, std::uint64_t seed) {
  auto c = city_pod(w, seed, 2, 1.5 * 2 * kEdgeGpuCapacity, kOverloadRequests);
  for (auto& spec : c.servers) {
    spec.batching.continuous = true;
    spec.batching.lanes = 2;
  }
  c.shape.diurnal_amplitude = 0.4;
  c.shape.diurnal_period = Duration::seconds(8);
  c.shape.flash_multiplier = 2.0;
  c.shape.flash_every = Duration::seconds(3);
  c.shape.flash_duration = Duration::from_millis_f(250.0);

  edgeai::FleetStudy::SloClassSpec interactive;
  interactive.name = "interactive";
  interactive.share = 0.3;
  interactive.lane = 0;
  interactive.deadline = Duration::from_millis_f(50.0);
  edgeai::FleetStudy::SloClassSpec batch;
  batch.name = "batch";
  batch.share = 0.7;
  batch.slo = Duration::from_millis_f(100.0);
  batch.deadline = Duration::from_millis_f(250.0);
  batch.lane = 1;
  batch.shed_queue_depth = 192;
  c.classes = {interactive, batch};

  c.resilience.max_retries = 2;
  c.resilience.retry_backoff = Duration::micros(250);
  c.resilience.hedge_delay = Duration::from_millis_f(15.0);
  c.faults.server_crash_rate_per_s = 0.2;
  c.faults.server_mttr = Duration::millis(150);
  c.faults.straggler_rate_per_s = 0.3;
  c.faults.straggler_mean = Duration::millis(100);
  c.faults.straggler_factor = 3.0;
  return c;
}

World::World(std::uint64_t seed, SpanLog& spans) {
  {
    const SpanGuard span(spans, "core.registry");
    core::register_paper_scenarios(registry);
  }
  {
    const SpanGuard span(spans, "core.study");
    const core::KlagenfurtStudy study;
    cell = study.rem().at(*study.grid().parse_label("C2"));
  }
  topo::EuropeOptions fixed;
  fixed.local_breakout = true;
  fixed.local_peering = true;
  const auto peered = [&] {
    const SpanGuard span(spans, "topo.build");
    return topo::build_europe(fixed);
  }();
  {
    const SpanGuard span(spans, "topo.compile");
    edge_path = peered.net.compile(
        peered.net.find_path(peered.mobile_ue, peered.university_probe));
  }
  const SpanGuard span(spans, "edgeai.config");
  city = city_pod(*this, seed, kEdgeGpus, kCityLoad, kCityRequests);
  overload = overload_fleet(*this, seed);
}

// ----------------------------------------------------------- operations

/// One operation's output: a study call's report summary, or one pass
/// over the registry. run_for adds the host times.
using Operation = std::function<void(JsonObject&)>;

void summarize(JsonObject& op, const edgeai::FleetStudy::Report& r,
               std::uint64_t offered) {
  std::uint64_t server_completed = 0;
  for (const auto& s : r.servers) server_completed += s.completed;
  const auto classes = json_array(r.classes, [](std::string& out,
                                                const auto& c) {
    out += JsonObject{}
               .str("name", c.name)
               .u64("offered", c.offered)
               .u64("delivered", c.delivered)
               .u64("failed", c.failed)
               .done();
  });
  op.str("digest", hex(edgeai::fleet_report_digest(r)))
      .u64("offered", offered)
      .u64("delivered", r.e2e_ms.count())
      .u64("failed", r.failed)
      .u64("server_completed", server_completed)
      .u64("fault_events", r.fault_events)
      .raw("classes", classes);
}

Operation fleet_op(const edgeai::FleetStudy::Config& config, SpanLog& spans) {
  return [&config, &spans](JsonObject& op) {
    edgeai::FleetStudy::Report report;
    {
      const SpanGuard span(spans, "edgeai.fleet.run");
      report = edgeai::FleetStudy::run(config);
    }
    summarize(op, report, config.requests);
  };
}

/// One pass over the registry, as `sixg_run --run all` makes it. With the
/// obs metrics on, each scenario gets its own metrics record.
Operation suite_op(const World& w, core::RunContext ctx, SpanLog& spans) {
  return [&w, ctx, &spans](JsonObject& op) {
    const SpanGuard pass(spans, "core.suite");
    const bool obs_on = obs::probes_enabled();
    auto& rt = obs::Runtime::instance();
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    const auto scenarios = json_array(w.registry.list(), [&](std::string& out,
                                                             const auto* s) {
      JsonObject row;
      row.str("name", s->name);
      core::ScenarioResult result;
      if (obs_on) rt.begin_scenario(s->name);
      const std::int64_t t0 = now_ns();
      try {
        const SpanGuard span(spans, "core.scenario." + s->name);
        result = s->run(ctx);
      } catch (const std::exception& e) {
        row.str("error", e.what());
      }
      row.num("wall_s", seconds_since(t0));
      if (obs_on) rt.end_scenario();
      const std::string d = hex(fnv1a(core::render(*s, result)));
      digest = fnv1a(d, digest);
      row.str("digest", d).raw(
          "anchors", json_array(result.anchors(), [](std::string& a_out,
                                                     const auto* a) {
            a_out += "[";
            js::append_string(a_out, a->what);
            a_out += ",";
            js::append_number(a_out, a->measured);
            a_out += "]";
          }));
      out += row.done();
    });
    op.str("digest", hex(digest)).raw("scenarios", scenarios);
  };
}

/// Run `call` back to back `calls` times, and `after(i)` untimed after the
/// i-th. Returns the JSON array of the calls' outputs.
std::string run_calls(const Operation& call, int calls, const char* label,
                      SpanLog& spans, bool with_obs,
                      const std::function<void(int)>& after = {}) {
  std::vector<std::string> ops;
  for (int i = 0; i < calls; ++i) {
    {
      const SpanGuard span(spans, label);
      if (with_obs) obs::Runtime::instance().begin_scenario(label);
      JsonObject op;
      const double cpu0 = cpu_seconds();
      const std::int64_t op0 = now_ns();
      try {
        call(op);
      } catch (const std::exception& e) {
        op.str("error", e.what());
      }
      op.num("wall_s", seconds_since(op0)).num("cpu_s", cpu_seconds() - cpu0);
      if (with_obs) obs::Runtime::instance().end_scenario();
      ops.push_back(op.done());
    }
    if (after) after(i);
  }
  return json_array(ops, [](std::string& out, const std::string& op) {
    out += op;
  });
}

void enable_metrics(bool on) {
  auto& rt = obs::Runtime::instance();
  if (on) {
    rt.configure(obs::Config{.metrics = true, .trace = false,
                             .sample_every = Duration{}});
  } else {
    rt.disable();
  }
}

// ------------------------------------------------------------ layer probes

/// Host time of NetLeg::sample_into over the fleet's own uplink and
/// downlink legs, `draws` requests' worth, in the engine's 256-draw blocks.
std::string time_net_leg(const World& w, std::uint64_t seed,
                         std::uint64_t draws, SpanLog& spans) {
  const auto spec = edge_server(w);
  std::vector<Duration> block(256);
  topo::PathBatchScratch scratch;
  Rng rng{derive_seed(seed, 0x1e9)};
  std::int64_t checksum = 0;  // keeps the draws observable
  const std::int64_t t0 = now_ns();
  {
    const SpanGuard span(spans, "edgeai.net_leg.sample_into");
    for (std::uint64_t done = 0; done < draws; done += block.size()) {
      const std::span<Duration> out{
          block.data(),
          std::size_t(std::min<std::uint64_t>(block.size(), draws - done))};
      spec.uplink.sample_into(out, rng, scratch);
      for (const auto d : out) checksum += d.ns();
      spec.downlink.sample_into(out, rng, scratch);
      for (const auto d : out) checksum += d.ns();
    }
  }
  return JsonObject{}
      .u64("draws", 2 * draws)
      .num("wall_s", seconds_since(t0))
      .u64("checksum", std::uint64_t(checksum))
      .done();
}

/// Host time of QosXApp::evaluate at ablation-cpf's WorkloadParams, once
/// per rule-table organisation.
std::string time_rule_lookups(std::uint64_t seed, SpanLog& spans) {
  oran::QosXApp::WorkloadParams params;
  params.seed = core::RunContext{seed, 1}.seed_for(0x90a5);
  JsonObject out;
  out.u64("lookups", params.lookups);
  const std::pair<const char*, core5g::RuleTable::Mode> modes[] = {
      {"linear", core5g::RuleTable::Mode::kLinearScan},
      {"context", core5g::RuleTable::Mode::kContextAware}};
  for (const auto& [name, mode] : modes) {
    const std::int64_t t0 = now_ns();
    double modelled_ns = 0.0;
    {
      const SpanGuard span(spans, std::string("fivegcore.evaluate.") + name);
      modelled_ns = oran::QosXApp::evaluate(mode, params).lookup_ns.mean();
    }
    out.raw(name, JsonObject{}
                      .num("wall_s", seconds_since(t0))
                      .num("modelled_lookup_ns", modelled_ns)
                      .done());
  }
  return out.done();
}

/// fig2's min/max cell means over kRtlReplicas seeds derived from `seed`
/// (replica 0 is `seed` itself). Each replica is one scenario call; a
/// replica that throws or lacks the anchors is reported in `errors`.
std::string fig2_replicas(const World& w, std::uint64_t seed,
                          unsigned threads, std::vector<std::string>* errors) {
  const core::Scenario* fig2 = w.registry.find("fig2");
  std::vector<std::pair<double, double>> replicas;
  for (std::uint32_t k = 0; k < kRtlReplicas; ++k) {
    if (fig2 == nullptr) {
      errors->push_back("fig2 is not registered");
      continue;
    }
    const core::RunContext ctx{k == 0 ? seed : derive_seed(seed, 0xf162 + k),
                               threads};
    double lo = -1.0;
    double hi = -1.0;
    try {
      const auto result = fig2->run(ctx);
      for (const auto* a : result.anchors()) {
        if (a->what.starts_with("min cell mean")) lo = a->measured;
        if (a->what.starts_with("max cell mean")) hi = a->measured;
      }
    } catch (const std::exception& e) {
      errors->push_back(e.what());
      continue;
    }
    if (lo < 0.0 || hi < 0.0) {
      errors->push_back("no min/max cell anchors");
      continue;
    }
    replicas.emplace_back(lo, hi);
  }
  return json_array(replicas, [](std::string& out, const auto& r) {
    out += "[";
    js::append_number(out, r.first);
    out += ",";
    js::append_number(out, r.second);
    out += "]";
  });
}

std::string manifest(const std::string& workload, std::uint64_t seed,
                     unsigned nproc, unsigned threads, unsigned timed_threads,
                     int timed_calls) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#else
  const std::string compiler = std::string("gcc ") + __VERSION__;
#endif
  const char* simd_env = std::getenv("SIXG_SIMD");
  return JsonObject{}
      .str("workload", workload)
      .u64("seed", seed)
      .str("compiler", compiler)
      .str("build_type", SIXG_BENCH_BUILD_TYPE)
      .str("simd_best", stats::simd_tier_name(stats::best_simd_tier()))
      .str("simd_effective", stats::simd_tier_name(stats::simd_tier()))
      .str("simd_env", simd_env != nullptr ? simd_env : "")
      .raw("obs_probes_compiled", obs::kProbesCompiled ? "true" : "false")
      .u64("nproc", nproc)
      .u64("threads", threads)
      .u64("timed_threads", timed_threads)
      .u64("timed_calls", std::uint64_t(timed_calls))
      .u64("setup_samples", kSetupSamples)
      .u64("setup_batch", kSetupBatch)
      .done();
}

std::string spans_json(const SpanLog& spans, const std::string& workload) {
  return json_array(spans.spans(), [&](std::string& out, const auto& s) {
    out += JsonObject{}
               .str("name", s.name)
               .u64("start_ns", std::uint64_t(s.start_ns))
               .u64("end_ns", std::uint64_t(s.end_ns))
               .raw("parent", std::to_string(s.parent))
               .str("workload", workload)
               .done();
  });
}

/// Every flag is required.
struct Args {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 0.0;
  std::optional<bool> trace;
  std::string out;
};

bool parse_args(int argc, char** argv, Args* a) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a->trace = *v == '1';
    } else if (flag == "--out") {
      a->out = v;
    } else {
      return false;
    }
    if (end != nullptr && (end == v || *end != '\0')) return false;
  }
  const bool known = a->workload == "paper-suite" ||
                     a->workload == "fleet-city" ||
                     a->workload == "fleet-overload";
  return known && a->seed && a->trace && !a->out.empty() && a->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: sixg_e2ebench --workload paper-suite|fleet-city|"
                 "fleet-overload --seed N --seconds S --trace 0|1 "
                 "--out PATH\n");
    return 2;
  }
  const std::uint64_t seed = *args.seed;
  const bool trace = *args.trace;
  const bool suite = args.workload == "paper-suite";
  const unsigned nproc = usable_cpus();
  const unsigned threads = std::min(4u, nproc);
  SpanLog spans(trace);
  SpanLog no_spans(false);

  const auto world = std::make_unique<World>(seed, spans);
  const World& w = *world;
  const auto& fleet = args.workload == "fleet-overload" ? w.overload : w.city;
  const auto workload_op = [&](SpanLog& log) -> Operation {
    if (suite) return suite_op(w, core::RunContext{seed, threads}, log);
    return fleet_op(fleet, log);
  };
  const Operation op = workload_op(no_spans);

  // Warm-up: untimed operations. For the suite it is one pass with the obs
  // metrics on, which counts the fleet arrivals the suite simulates (the
  // report bytes are the same with probes on or off; run.py checks).
  std::string warmup_metrics = "null";
  if (suite) enable_metrics(true);
  const std::string warmup =
      run_calls(op, suite ? 1 : kFleetWarmupCalls, "warmup", no_spans, false);
  if (suite) {
    warmup_metrics = obs::Runtime::instance().metrics_json(true);
    enable_metrics(false);
  }

  // The timed phase: probes off, no spans. In the traced run it gets half
  // the seconds; the other half runs the same operation traced.
  const double call_s = suite ? kSuiteCallSeconds
                        : args.workload == "fleet-overload"
                            ? kOverloadCallSeconds
                            : kCityCallSeconds;
  const double phase_s = trace ? args.seconds / 2.0 : args.seconds;
  const int calls = std::max(suite ? 2 : 5, int(std::lround(phase_s / call_s)));

  // Set-up samples, taken between timed calls: after call i, enough
  // batches that (i + 1) / calls of the kSetupSamples are done.
  std::vector<double> setup_s;
  const auto sample_setup = [&](int i) {
    const auto due = std::size_t((i + 1) * kSetupSamples / calls);
    while (setup_s.size() < due) {
      const SpanGuard span(spans, "setup");
      const std::int64_t t0 = now_ns();
      for (int b = 0; b < kSetupBatch; ++b) World rebuilt(seed, spans);
      setup_s.push_back(seconds_since(t0) / kSetupBatch);
    }
  };
  const std::string ops =
      run_calls(op, calls, "op", no_spans, false, sample_setup);

  std::string traced = "[]";
  std::string obs_metrics = "null";
  JsonObject extra;
  if (trace) {
    enable_metrics(true);
    traced = run_calls(workload_op(spans), calls, "traced", spans, !suite);
    obs_metrics = obs::Runtime::instance().metrics_json(true);
    enable_metrics(false);

    // The suite's draw count is fleet-city's.
    extra.raw("net_leg", time_net_leg(w, seed, fleet.requests, spans))
        .raw("rule_lookups", time_rule_lookups(seed, spans));
  }

  std::vector<std::string> rtl_errors;
  const std::string rtl = fig2_replicas(w, seed, threads, &rtl_errors);

  const auto number = [](std::string& out, double v) {
    js::append_number(out, v);
  };
  const auto string = [](std::string& out, const std::string& s) {
    js::append_string(out, s);
  };
  std::vector<std::string> scenario_names;
  for (const core::Scenario* s : w.registry.list())
    scenario_names.push_back(s->name);
  const std::string doc =
      JsonObject{}
          .raw("manifest", manifest(args.workload, seed, nproc, threads,
                                    suite ? threads : 1, calls))
          .raw("setup_s", json_array(setup_s, number))
          .raw("warmup", warmup)
          .raw("ops", ops)
          .raw("traced_ops", traced)
          .raw("warmup_metrics", warmup_metrics)
          .raw("obs_metrics", obs_metrics)
          .raw("extra", extra.done())
          .raw("rtl_replicas", rtl)
          .u64("rtl_attempted", kRtlReplicas)
          .raw("rtl_errors", json_array(rtl_errors, string))
          .raw("scenarios", json_array(scenario_names, string))
          .raw("spans", spans_json(spans, args.workload))
          .num("peak_rss_mb", peak_rss_mb())
          .done() +
      "\n";

  std::FILE* f = std::fopen(args.out.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "sixg_e2ebench: cannot open %s\n", args.out.c_str());
    return 1;
  }
  const bool written = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  if (std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "sixg_e2ebench: short write to %s\n",
                 args.out.c_str());
    return 1;
  }
  return 0;
}
