#include "obs/obs.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <tuple>
#include <utility>

#include "common/assert.hpp"
#include "stats/json.hpp"

namespace sixg::obs {

namespace detail {
std::atomic<std::uint8_t> g_flags{0};
}  // namespace detail

namespace {

thread_local Scope* tl_scope = nullptr;

constexpr std::size_t kCount = std::size_t(Metric::kMetricCount);

// Name / kind / dense per-kind slot for every Metric id, in enum order.
// Slots are assigned per kind so MetricSet storage stays dense.
constexpr MetricDef kDefs[kCount] = {
    {"kernel.events_scheduled", MetricKind::kCounter, 0},
    {"kernel.events_fired", MetricKind::kCounter, 1},
    {"kernel.heap_pushes", MetricKind::kCounter, 2},
    {"kernel.timers_armed", MetricKind::kCounter, 3},
    {"kernel.timers_cancelled", MetricKind::kCounter, 4},
    {"shard.windows", MetricKind::kCounter, 5},
    {"shard.messages", MetricKind::kCounter, 6},
    {"serve.submitted", MetricKind::kCounter, 7},
    {"serve.completed", MetricKind::kCounter, 8},
    {"serve.dropped", MetricKind::kCounter, 9},
    {"serve.batches", MetricKind::kCounter, 10},
    {"fleet.arrivals", MetricKind::kCounter, 11},
    {"fleet.remote", MetricKind::kCounter, 12},
    {"fleet.completed", MetricKind::kCounter, 13},
    {"fleet.slo_misses", MetricKind::kCounter, 14},
    {"fleet.timeouts", MetricKind::kCounter, 15},
    {"fleet.retries", MetricKind::kCounter, 16},
    {"fleet.hedges", MetricKind::kCounter, 17},
    {"fleet.shed", MetricKind::kCounter, 18},
    {"fleet.lost_to_crashes", MetricKind::kCounter, 19},
    {"fault.events", MetricKind::kCounter, 20},
    {"obs.trace_dropped", MetricKind::kCounter, 21},
    {"shard.lookahead_ns", MetricKind::kGauge, 0},
    {"shard.shards", MetricKind::kGauge, 1},
    {"shard.drain_messages", MetricKind::kHistogram, 0},
    {"serve.batch_size", MetricKind::kHistogram, 1},
    {"serve.queue_depth", MetricKind::kHistogram, 2},
};

constexpr std::size_t kCounterSlots = 22;
constexpr std::size_t kGaugeSlots = 2;
constexpr std::size_t kHistSlots = 3;

constexpr const char* kTraceNames[std::size_t(TraceName::kTraceNameCount)] = {
    "window", "drain", "batch", "queue", "request",
};

namespace js = sixg::stats::json;

void append_us(std::string& out, std::int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", double(ns) / 1000.0);
  out += buf;
}

void append_quantiles(std::string& out,
                      const stats::ReservoirQuantile& q) {
  static constexpr std::pair<const char*, double> kProbes[] = {
      {"p50", 0.5}, {"p90", 0.9}, {"p95", 0.95},
      {"p99", 0.99}, {"p999", 0.999},
  };
  out.push_back('{');
  bool first = true;
  for (const auto& [name, p] : kProbes) {
    if (!first) out.push_back(',');
    first = false;
    js::append_string(out, name);
    out.push_back(':');
    // quantile() asserts on an empty reservoir; an empty series is a
    // legitimate export (e.g. a run too short to tick the sampler).
    js::append_number(out, q.count() == 0
                               ? std::numeric_limits<double>::quiet_NaN()
                               : q.quantile(p));
  }
  out.push_back('}');
}

void append_series(std::string& out, const SeriesResult& s) {
  out += "{\"name\":";
  js::append_string(out, s.name);
  out += ",\"key\":";
  js::append_u64(out, s.key);
  out += ",\"shard\":";
  js::append_u64(out, s.shard);
  out += ",\"count\":";
  js::append_u64(out, s.summary.count());
  out += ",\"mean\":";
  js::append_number(out, s.summary.mean());
  out += ",\"min\":";
  js::append_number(out, s.summary.min());
  out += ",\"max\":";
  js::append_number(out, s.summary.max());
  out += ",\"q\":";
  append_quantiles(out, s.quantiles);
  out += ",\"points\":[";
  bool first = true;
  for (const auto& [t, v] : s.points) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('[');
    js::append_number(out, t);
    out.push_back(',');
    js::append_number(out, v);
    out.push_back(']');
  }
  out += "]}";
}

void append_distribution(std::string& out, const Distribution& d) {
  out += "{\"name\":";
  js::append_string(out, d.name);
  out += ",\"key\":";
  js::append_u64(out, d.key);
  out += ",\"hist\":";
  d.hist.to_json(out);
  out += ",\"quantiles\":";
  d.quantiles.to_json(out);
  out.push_back('}');
}

/// Each aggregate's JSON object, sorted by `label`, then by the JSON
/// itself: aggregates that share a label (two runs of one seed in one
/// section) export in the same order whichever was published first.
template <typename T, typename Label>
std::vector<std::string> render_sorted(const std::vector<T>& items,
                                       Label label,
                                       void (*append)(std::string&, const T&)) {
  std::vector<std::string> json(items.size());
  std::vector<std::size_t> order(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    append(json[i], items[i]);
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::tuple_cat(label(items[a]), std::tie(json[a])) <
           std::tuple_cat(label(items[b]), std::tie(json[b]));
  });
  std::vector<std::string> sorted;
  sorted.reserve(items.size());
  for (const std::size_t i : order) sorted.push_back(std::move(json[i]));
  return sorted;
}

}  // namespace

const MetricDef& metric_def(Metric m) {
  const auto i = std::size_t(m);
  SIXG_ASSERT(i < kCount, "metric id out of range");
  return kDefs[i];
}

std::size_t counter_slots() { return kCounterSlots; }
std::size_t gauge_slots() { return kGaugeSlots; }
std::size_t histogram_slots() { return kHistSlots; }

const char* trace_name(TraceName n) {
  const auto i = std::size_t(n);
  SIXG_ASSERT(i < std::size_t(TraceName::kTraceNameCount),
              "trace name out of range");
  return kTraceNames[i];
}

MetricSet::MetricSet()
    : counters(kCounterSlots), gauges(kGaugeSlots), hists(kHistSlots) {}

void MetricSet::reset() {
  std::fill(counters.begin(), counters.end(), 0);
  std::fill(gauges.begin(), gauges.end(), Gauge{});
  for (auto& h : hists) h.reset();
}

void MetricSet::merge_from(const MetricSet& other) {
  for (std::size_t i = 0; i < counters.size(); ++i)
    counters[i] += other.counters[i];
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    if (!other.gauges[i].set) continue;
    gauges[i].value = gauges[i].set
                          ? std::max(gauges[i].value, other.gauges[i].value)
                          : other.gauges[i].value;
    gauges[i].set = true;
  }
  for (std::size_t i = 0; i < hists.size(); ++i) hists[i].merge(other.hists[i]);
}

void Scope::reset() {
  metrics_.reset();
  trace_.clear();
  trace_dropped_ = 0;
}

void Scope::absorb(const Scope& other) {
  metrics_.merge_from(other.metrics_);
  const std::size_t room = kTraceCap - std::min(kTraceCap, trace_.size());
  const std::size_t kept = std::min(room, other.trace_.size());
  trace_.insert(trace_.end(), other.trace_.begin(),
                other.trace_.begin() + std::ptrdiff_t(kept));
  trace_dropped_ += other.trace_dropped_ + (other.trace_.size() - kept);
}

std::vector<TraceEvent> Scope::take_trace() {
  if (trace_dropped_ != 0) {
    metrics_.counters[metric_def(Metric::kTraceDropped).slot] += trace_dropped_;
    trace_dropped_ = 0;
  }
  return std::move(trace_);
}

ScopeBind::ScopeBind(Scope* scope) {
  if (scope == nullptr) return;
  prev_ = tl_scope;
  tl_scope = scope;
  bound_ = true;
}

ScopeBind::~ScopeBind() {
  if (bound_) tl_scope = prev_;
}

void probe_count(Metric metric, std::uint64_t n) {
  Scope* s = tl_scope;
  if (s == nullptr) return;
  s->metrics().counters[metric_def(metric).slot] += n;
}

void probe_gauge(Metric metric, double value) {
  Scope* s = tl_scope;
  if (s == nullptr) return;
  auto& g = s->metrics().gauges[metric_def(metric).slot];
  g.value = g.set ? std::max(g.value, value) : value;
  g.set = true;
}

void probe_hist(Metric metric, std::uint64_t value) {
  Scope* s = tl_scope;
  if (s == nullptr) return;
  s->metrics().hists[metric_def(metric).slot].observe(value);
}

void probe_span(TraceName name, std::int64_t ts_ns, std::int64_t dur_ns,
                std::uint64_t arg) {
  Scope* s = tl_scope;
  if (s == nullptr) return;
  TraceEvent ev;
  ev.ts_ns = ts_ns;
  ev.dur_ns = dur_ns;
  ev.arg = arg;
  ev.name = name;
  ev.ph = 'X';
  s->record(ev);
}

void probe_instant(TraceName name, std::int64_t ts_ns, std::uint64_t arg) {
  Scope* s = tl_scope;
  if (s == nullptr) return;
  TraceEvent ev;
  ev.ts_ns = ts_ns;
  ev.arg = arg;
  ev.name = name;
  ev.ph = 'i';
  s->record(ev);
}

Runtime& Runtime::instance() {
  static Runtime rt;
  return rt;
}

void Runtime::configure(const Config& config) {
  std::lock_guard<std::mutex> lk(mu_);
  config_ = config;
  reset_locked();
  records_.clear();
  tl_scope = main_.get();
  detail::g_flags.store(
      std::uint8_t((config.metrics ? detail::kMetricsBit : 0) |
                   (config.trace ? detail::kTraceBit : 0)),
      std::memory_order_relaxed);
}

void Runtime::disable() {
  detail::g_flags.store(0, std::memory_order_relaxed);
}

Duration Runtime::sample_every() const {
  std::lock_guard<std::mutex> lk(mu_);
  return config_.sample_every;
}

void Runtime::reset_locked() {
  if (!main_) main_ = std::make_unique<Scope>(0, "main");
  main_->reset();
  for (auto& s : shard_scopes_) s->reset();
  thread_scopes_.clear();
  ++section_;
  series_.clear();
  distributions_.clear();
  workers_.clear();
  next_pool_ = 0;
  scenario_open_ = false;
  scenario_name_.clear();
}

void Runtime::begin_scenario(std::string name) {
  std::lock_guard<std::mutex> lk(mu_);
  if (scenario_open_) end_scenario_locked();
  scenario_name_ = std::move(name);
  scenario_open_ = true;
}

void Runtime::end_scenario() {
  std::lock_guard<std::mutex> lk(mu_);
  end_scenario_locked();
}

void Runtime::end_scenario_locked() {
  if (!scenario_open_) return;
  ScenarioRecord rec;
  rec.name = std::move(scenario_name_);

  // Merge order is fixed — main, shard tracks ascending, worker scopes
  // in creation order — and the merged values are order-independent
  // anyway (sums and maxes), so the record is worker-count invariant.
  auto fold = [&rec](Scope& s) {
    auto events = s.take_trace();  // folds dropped count into metrics
    if (!events.empty()) {
      ScopeDump dump;
      dump.tid = s.tid();
      dump.label = s.label();
      dump.events = std::move(events);
      rec.trace.push_back(std::move(dump));
    }
    rec.merged.merge_from(s.metrics());
    s.reset();
  };
  if (main_) fold(*main_);
  for (auto& s : shard_scopes_) fold(*s);
  for (auto& s : thread_scopes_) fold(*s);
  thread_scopes_.clear();
  ++section_;

  rec.series = render_sorted(
      series_,
      [](const SeriesResult& s) { return std::tie(s.name, s.key, s.shard); },
      append_series);
  rec.distributions = render_sorted(
      distributions_,
      [](const Distribution& d) { return std::tie(d.name, d.key); },
      append_distribution);
  rec.workers = std::move(workers_);
  std::sort(rec.workers.begin(), rec.workers.end(),
            [](const WorkerProfile& a, const WorkerProfile& b) {
              if (a.pool != b.pool) return a.pool < b.pool;
              return a.worker < b.worker;
            });
  records_.push_back(std::move(rec));

  series_.clear();
  distributions_.clear();
  workers_.clear();
  scenario_open_ = false;
  scenario_name_.clear();
}

void Runtime::publish_shards(const std::vector<Scope>& shards) {
  std::lock_guard<std::mutex> lk(mu_);
  while (shard_scopes_.size() < shards.size()) {
    const auto k = std::uint32_t(shard_scopes_.size());
    shard_scopes_.push_back(
        std::make_unique<Scope>(1 + k, "shard " + std::to_string(k)));
  }
  for (std::size_t k = 0; k < shards.size(); ++k) {
    shard_scopes_[k]->absorb(shards[k]);
  }
}

Scope* Runtime::thread_scope() {
  thread_local Scope* tl_worker = nullptr;
  thread_local std::uint64_t tl_section = 0;
  std::lock_guard<std::mutex> lk(mu_);
  if (tl_worker == nullptr || tl_section != section_) {
    const auto k = std::uint32_t(thread_scopes_.size());
    thread_scopes_.push_back(
        std::make_unique<Scope>(4096 + k, "worker " + std::to_string(k)));
    tl_worker = thread_scopes_.back().get();
    tl_section = section_;
  }
  return tl_worker;
}

void Runtime::publish_series(SeriesResult series) {
  std::lock_guard<std::mutex> lk(mu_);
  series_.push_back(std::move(series));
}

void Runtime::publish_distribution(Distribution dist) {
  std::lock_guard<std::mutex> lk(mu_);
  distributions_.push_back(std::move(dist));
}

std::uint32_t Runtime::next_pool_id() {
  std::lock_guard<std::mutex> lk(mu_);
  return next_pool_++;
}

void Runtime::publish_workers(std::vector<WorkerProfile> workers) {
  std::lock_guard<std::mutex> lk(mu_);
  workers_.insert(workers_.end(), workers.begin(), workers.end());
}

std::string Runtime::metrics_json(bool include_worker_profile) {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  out.reserve(std::size_t{1} << 14);
  out += "{\"version\":1,\"tool\":\"sixg_run\",\"scenarios\":[";
  bool first_rec = true;
  for (const auto& rec : records_) {
    if (!first_rec) out.push_back(',');
    first_rec = false;
    out += "{\"name\":";
    js::append_string(out, rec.name);

    out += ",\"counters\":{";
    bool first = true;
    for (std::size_t i = 0; i < kCount; ++i) {
      if (kDefs[i].kind != MetricKind::kCounter) continue;
      if (!first) out.push_back(',');
      first = false;
      js::append_string(out, kDefs[i].name);
      out.push_back(':');
      js::append_u64(out, rec.merged.counters[kDefs[i].slot]);
    }

    out += "},\"gauges\":{";
    first = true;
    for (std::size_t i = 0; i < kCount; ++i) {
      if (kDefs[i].kind != MetricKind::kGauge) continue;
      const auto& g = rec.merged.gauges[kDefs[i].slot];
      if (!g.set) continue;
      if (!first) out.push_back(',');
      first = false;
      js::append_string(out, kDefs[i].name);
      out.push_back(':');
      js::append_number(out, g.value);
    }

    out += "},\"histograms\":{";
    first = true;
    for (std::size_t i = 0; i < kCount; ++i) {
      if (kDefs[i].kind != MetricKind::kHistogram) continue;
      const auto& h = rec.merged.hists[kDefs[i].slot];
      if (h.count() == 0) continue;
      if (!first) out.push_back(',');
      first = false;
      js::append_string(out, kDefs[i].name);
      out += ":{\"count\":";
      js::append_u64(out, h.count());
      out += ",\"sum\":";
      js::append_u64(out, h.sum());
      out += ",\"buckets\":[";
      bool first_b = true;
      for (std::size_t b = 0; b < LogHistogram::kBuckets; ++b) {
        if (h.bucket(b) == 0) continue;
        if (!first_b) out.push_back(',');
        first_b = false;
        out += "{\"lo\":";
        js::append_u64(out, LogHistogram::bucket_lo(b));
        out += ",\"count\":";
        js::append_u64(out, h.bucket(b));
        out.push_back('}');
      }
      out += "]}";
    }

    const auto append_all = [&out](const std::vector<std::string>& objects) {
      out.push_back('[');
      for (std::size_t i = 0; i < objects.size(); ++i) {
        if (i != 0) out.push_back(',');
        out += objects[i];
      }
      out.push_back(']');
    };
    out += "},\"series\":";
    append_all(rec.series);
    out += ",\"distributions\":";
    append_all(rec.distributions);

    if (include_worker_profile) {
      out += ",\"workers\":[";
      first = true;
      for (const auto& w : rec.workers) {
        if (!first) out.push_back(',');
        first = false;
        out += "{\"pool\":";
        js::append_u64(out, w.pool);
        out += ",\"shards\":";
        js::append_u64(out, w.shards);
        out += ",\"worker_cap\":";
        js::append_u64(out, w.worker_cap);
        out += ",\"seed\":";
        js::append_u64(out, w.seed);
        out += ",\"worker\":";
        js::append_u64(out, w.worker);
        out += ",\"busy_ns\":";
        js::append_u64(out, w.busy_ns);
        out += ",\"stall_ns\":";
        js::append_u64(out, w.stall_ns);
        out += ",\"windows\":";
        js::append_u64(out, w.windows);
        out.push_back('}');
      }
      out.push_back(']');
    }
    out.push_back('}');
  }
  out += "]}";
  return out;
}

std::string Runtime::trace_json() {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  out.reserve(std::size_t{1} << 16);
  out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"tool\":\"sixg_run\"},";
  out += "\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out.push_back(',');
    first = false;
  };
  for (std::size_t pid = 0; pid < records_.size(); ++pid) {
    const auto& rec = records_[pid];
    sep();
    out += "{\"ph\":\"M\",\"pid\":";
    js::append_u64(out, pid);
    out += ",\"name\":\"process_name\",\"args\":{\"name\":";
    js::append_string(out, rec.name);
    out += "}}";
    for (const auto& dump : rec.trace) {
      sep();
      out += "{\"ph\":\"M\",\"pid\":";
      js::append_u64(out, pid);
      out += ",\"tid\":";
      js::append_u64(out, dump.tid);
      out += ",\"name\":\"thread_name\",\"args\":{\"name\":";
      js::append_string(out, dump.label);
      out += "}}";
      for (const auto& ev : dump.events) {
        sep();
        out += "{\"name\":";
        js::append_string(out, trace_name(ev.name));
        out += ",\"ph\":\"";
        out.push_back(ev.ph);
        out += "\",\"pid\":";
        js::append_u64(out, pid);
        out += ",\"tid\":";
        js::append_u64(out, dump.tid);
        out += ",\"ts\":";
        append_us(out, ev.ts_ns);
        if (ev.ph == 'X') {
          out += ",\"dur\":";
          append_us(out, ev.dur_ns);
        } else if (ev.ph == 'i') {
          out += ",\"s\":\"t\"";
        }
        out += ",\"args\":{\"v\":";
        js::append_u64(out, ev.arg);
        out += "}}";
      }
    }
  }
  out += "]}";
  return out;
}

}  // namespace sixg::obs
