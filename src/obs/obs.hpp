/// @file obs.hpp — the observability runtime: metrics registry, per-scope
/// metric slots, Chrome-trace-event sink and JSON export.
///
/// Determinism rules (the contract docs/ARCHITECTURE.md spells out):
///  * Probes write only to the thread's bound Scope — never across
///    threads. Each ShardedSimulator owns one scope per shard and binds
///    shard k's around shard k's window execution, so a shard's probes
///    land in the same slot no matter which worker ran it, and two
///    sharded runs recording at once never share a slot. The run folds
///    its shard scopes into the open section's shard-k track when it is
///    destroyed.
///  * Counters and log2-histogram buckets are u64 sums and gauges keep
///    their maximum, within a scope and across scopes: merging is
///    commutative and associative, so the merged metrics are
///    byte-identical at any worker count and in any completion order.
///  * Order-sensitive aggregates (sampler series, report distributions)
///    are published whole, labeled by (name, engine seed[, shard]), and
///    exported sorted by that label, then by their own JSON — so two
///    runs of one seed in a section export in the same order whichever
///    finished first.
///  * Wall-clock worker profiles are the ONE deliberately
///    non-deterministic section; metrics_json(false) excludes them,
///    which is what the determinism tests compare.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "obs/probe.hpp"
#include "stats/histogram.hpp"
#include "stats/reservoir.hpp"
#include "stats/summary.hpp"

namespace sixg::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Name + kind + dense per-kind slot of one built-in metric.
struct MetricDef {
  const char* name;
  MetricKind kind;
  std::uint16_t slot;  ///< index within its kind's storage array
};

/// The (static) metric registry: definition of every Metric id.
[[nodiscard]] const MetricDef& metric_def(Metric m);
[[nodiscard]] std::size_t counter_slots();
[[nodiscard]] std::size_t gauge_slots();
[[nodiscard]] std::size_t histogram_slots();
[[nodiscard]] const char* trace_name(TraceName n);

/// Power-of-two bucketed histogram for u64 probe values: value v lands
/// in bucket bit_width(v), i.e. [2^(b-1), 2^b). Fixed-size POD storage,
/// O(1) observe, and merging is a plain bucket-wise sum — the shape that
/// keeps per-shard slots mergeable without ordering concerns.
class LogHistogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // bucket 0 holds v == 0

  void observe(std::uint64_t v) {
    ++buckets_[bucket_of(v)];
    ++count_;
    sum_ += v;
  }
  void merge(const LogHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ += other.sum_;
  }
  void reset() { *this = LogHistogram{}; }

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) {
    std::size_t b = 0;
    while (v != 0) {
      ++b;
      v >>= 1;
    }
    return b;
  }
  /// Inclusive lower bound of bucket b (0 for the zero bucket).
  [[nodiscard]] static std::uint64_t bucket_lo(std::size_t b) {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t bucket(std::size_t b) const { return buckets_[b]; }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

/// One scope's metric slots: counters, gauges and log2 histograms, one
/// slot per registered metric of that kind.
struct MetricSet {
  std::vector<std::uint64_t> counters;
  struct Gauge {
    double value = 0.0;
    bool set = false;
  };
  std::vector<Gauge> gauges;
  std::vector<LogHistogram> hists;

  MetricSet();
  void reset();
  /// Fold `other` in: counters and histogram buckets sum; gauges merge
  /// by max, as probe_gauge folds writes within a scope (max commutes —
  /// the property merging needs).
  void merge_from(const MetricSet& other);
};

/// One recorded trace event. ts/dur are simulated nanoseconds; `ph` is
/// the Chrome trace phase ('X' complete span, 'i' instant).
struct TraceEvent {
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint64_t arg = 0;
  TraceName name = TraceName::kWindow;
  char ph = 'X';
};

/// A single-writer metric + trace slot. Exactly one thread writes a
/// scope at a time (enforced by the binding discipline, not by locks).
class Scope {
 public:
  /// Per-scope trace cap: beyond this, events are counted as dropped
  /// instead of recorded (a runaway trace must not OOM a 100M-request
  /// run). Generous — ~40 MB of TraceEvent per scope at the cap.
  static constexpr std::size_t kTraceCap = std::size_t{1} << 20;

  Scope(std::uint32_t tid, std::string label)
      : tid_(tid), label_(std::move(label)) {}

  MetricSet& metrics() { return metrics_; }
  [[nodiscard]] const MetricSet& metrics() const { return metrics_; }

  void record(const TraceEvent& ev) {
    if (trace_.size() >= kTraceCap) {
      ++trace_dropped_;
      return;
    }
    trace_.push_back(ev);
  }

  [[nodiscard]] std::uint32_t tid() const { return tid_; }
  [[nodiscard]] const std::string& label() const { return label_; }
  [[nodiscard]] const std::vector<TraceEvent>& trace() const { return trace_; }
  [[nodiscard]] std::uint64_t trace_dropped() const { return trace_dropped_; }
  void reset();
  /// Fold `other` in as if its probes had written here after this
  /// scope's own: metrics merge, and its trace events append up to the
  /// cap, the rest counted as dropped.
  void absorb(const Scope& other);
  /// Move the trace buffer out (scenario-end flush) and fold the
  /// dropped count into the metric set.
  std::vector<TraceEvent> take_trace();

 private:
  MetricSet metrics_;
  std::vector<TraceEvent> trace_;
  std::uint64_t trace_dropped_ = 0;
  std::uint32_t tid_;
  std::string label_;
};

/// A published time series: one sampled signal of one engine/shard.
/// The reservoir uses a seed derived from the key, so the quantiles are
/// a pure function of the sampled values.
struct SeriesResult {
  std::string name;
  std::uint64_t key = 0;     ///< engine seed (runs of one seed share it)
  std::uint32_t shard = 0;   ///< pod/shard index (0 for serial engines)
  stats::Summary summary;
  stats::ReservoirQuantile quantiles;
  /// Decimated (t_ms, value) points: at most PeriodicSampler's cap,
  /// thinned by powers of two as the run grows.
  std::vector<std::pair<double, double>> points;
};

/// A published end-of-run distribution (e.g. the fleet e2e histogram).
struct Distribution {
  std::string name;
  std::uint64_t key = 0;
  stats::Histogram hist{0.0, 1.0, 1};
  stats::ReservoirQuantile quantiles;
};

/// Wall-clock busy-vs-stall profile of one participant slot of one
/// sharded run's windows. `pool` numbers the runs of a section in the
/// order they finished; `shards`, `worker_cap` and `seed` name the run.
/// Deliberately non-deterministic (steady_clock); excluded from
/// metrics_json(include_worker_profile=false).
struct WorkerProfile {
  std::uint32_t pool = 0;
  std::uint32_t shards = 0;      ///< the run's shard count
  std::uint32_t worker_cap = 0;  ///< threads the run's windows may use
  std::uint64_t seed = 0;        ///< the run's base seed
  std::uint32_t worker = 0;  ///< 0 is the coordinator; helpers by join order
  std::uint64_t busy_ns = 0;
  std::uint64_t stall_ns = 0;
  std::uint64_t windows = 0;
};

struct Config {
  bool metrics = false;
  bool trace = false;
  /// Simulated-time cadence of the PeriodicSampler fleet engines attach
  /// when metrics are on; zero disables sampling.
  Duration sample_every{};
};

/// Process-wide observability runtime. All management calls (configure,
/// begin/end_scenario, scope creation, publish_*) happen on coordinating
/// or setup threads under the internal mutex; only the probe fast path
/// (current scope writes) is lock-free.
class Runtime {
 public:
  static Runtime& instance();

  /// Install `config`, clear every scope and all finished-scenario
  /// records, and bind the calling thread to the main scope. Call from
  /// the thread that will coordinate runs, before any run starts.
  void configure(const Config& config);
  /// Turn all probes off (records are kept for export).
  void disable();
  [[nodiscard]] Duration sample_every() const;

  /// Open/close one named metrics+trace section. end_scenario merges
  /// every scope (main, shard tracks in index order, then worker scopes)
  /// and flushes trace buffers into the finished record.
  void begin_scenario(std::string name);
  void end_scenario();

  /// Fold a finished sharded run's scopes, shard k's at index k, into
  /// the section's shard-k tracks (trace tid 1 + k). Runs that finish
  /// in any order give the same merged metrics; the events of a track
  /// follow the order the runs finished in.
  void publish_shards(const std::vector<Scope>& shards);
  /// The calling thread's worker scope in the current section, created
  /// on its first use there (ParallelRunner's helper threads bind it for
  /// every batch they join). Counters merged from these scopes are
  /// worker-count invariant (sums commute); trace tids are assigned in
  /// creation order and are NOT deterministic across runs.
  [[nodiscard]] Scope* thread_scope();

  void publish_series(SeriesResult series);
  void publish_distribution(Distribution dist);
  [[nodiscard]] std::uint32_t next_pool_id();
  void publish_workers(std::vector<WorkerProfile> workers);

  /// The finished-scenario metrics document (strict JSON; non-finite
  /// values encoded per stats/json.hpp). include_worker_profile=false
  /// drops the wall-clock "workers" arrays — everything that remains is
  /// a pure function of seed and shard count.
  [[nodiscard]] std::string metrics_json(bool include_worker_profile = true);
  /// The finished-scenario Chrome-trace-event document (one pid per
  /// scenario, one tid per scope). Loadable by Perfetto / chrome://tracing.
  [[nodiscard]] std::string trace_json();

 private:
  Runtime() = default;

  struct ScopeDump {
    std::uint32_t tid = 0;
    std::string label;
    std::vector<TraceEvent> events;
  };
  struct ScenarioRecord {
    std::string name;
    MetricSet merged;
    std::vector<std::string> series;         ///< JSON objects, export order
    std::vector<std::string> distributions;  ///< JSON objects, export order
    std::vector<WorkerProfile> workers;
    std::vector<ScopeDump> trace;
  };

  void reset_locked();
  void end_scenario_locked();

  mutable std::mutex mu_;
  Config config_;
  std::unique_ptr<Scope> main_;
  /// The section's shard-k tracks: what the sharded runs that finished
  /// in it recorded on shard k.
  std::vector<std::unique_ptr<Scope>> shard_scopes_;
  std::vector<std::unique_ptr<Scope>> thread_scopes_;
  /// Bumped whenever thread_scopes_ is cleared: a thread's cached worker
  /// scope is valid while the section it was created in is current.
  std::uint64_t section_ = 0;
  std::vector<SeriesResult> series_;
  std::vector<Distribution> distributions_;
  std::vector<WorkerProfile> workers_;
  std::uint32_t next_pool_ = 0;
  bool scenario_open_ = false;
  std::string scenario_name_;
  std::vector<ScenarioRecord> records_;
};

}  // namespace sixg::obs
