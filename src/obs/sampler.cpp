#include "obs/sampler.hpp"

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace sixg::obs {

namespace {
/// Retained (t, value) points per series; past it the point list is
/// decimated by powers of two (summary + reservoir keep seeing every
/// tick).
constexpr std::size_t kMaxPoints = 512;
/// Reservoir cap of each series' quantiles.
constexpr std::size_t kQuantileCap = 1024;
}  // namespace

PeriodicSampler::PeriodicSampler(netsim::Simulator& sim, Config config,
                                 std::uint64_t key, std::uint32_t shard)
    : sim_(sim), config_(config), key_(key), shard_(shard) {
  SIXG_ASSERT(config_.every > Duration{}, "sampler cadence must be positive");
}

void PeriodicSampler::add_series(std::string name,
                                 std::function<double()> read) {
  Series s;
  s.name = std::move(name);
  s.read = std::move(read);
  // Private reservoir stream per series: quantiles are a pure function
  // of (key, series index, sampled values) and perturb nothing else.
  s.quantiles = stats::ReservoirQuantile(
      kQuantileCap, derive_seed(key_, 0x0b5e0000 + series_.size()));
  series_.push_back(std::move(s));
}

void PeriodicSampler::start() {
  stopped_ = false;
  handle_ = sim_.schedule_once(config_.every, [this] { tick(); });
}

void PeriodicSampler::stop() {
  if (stopped_) return;
  stopped_ = true;
  // Disarm the staged tick so the sampler never outlives the model's
  // last event — the property that keeps run length, window counts and
  // the report digest identical to an unsampled run.
  handle_.cancel();
}

void PeriodicSampler::tick() {
  if (stopped_) return;
  const double t_ms = double(sim_.now().ns()) / 1e6;
  for (auto& s : series_) {
    const double v = s.read();
    s.summary.add(v);
    s.quantiles.add(v);
    if (ticks_ % s.stride == 0) {
      if (s.points.size() >= kMaxPoints) {
        // Decimate: keep every other point, double the stride. The
        // summary and reservoir keep full-rate accuracy; only the
        // plotted trajectory coarsens.
        for (std::size_t i = 0; i < s.points.size() / 2; ++i)
          s.points[i] = s.points[2 * i];
        s.points.resize(s.points.size() / 2);
        s.stride *= 2;
      }
      if (ticks_ % s.stride == 0) s.points.emplace_back(t_ms, v);
    }
  }
  ++ticks_;
  // Re-arm only while the model still has work: the sampler must never
  // be the event that keeps the run alive.
  if (sim_.pending_events() > 0) {
    handle_ = sim_.schedule_once(config_.every, [this] { tick(); });
  } else {
    stopped_ = true;
  }
}

void PeriodicSampler::publish() {
  auto& rt = Runtime::instance();
  for (auto& s : series_) {
    SeriesResult r;
    r.name = std::move(s.name);
    r.key = key_;
    r.shard = shard_;
    r.summary = s.summary;
    r.quantiles = std::move(s.quantiles);
    r.points = std::move(s.points);
    rt.publish_series(std::move(r));
  }
  series_.clear();
}

}  // namespace sixg::obs
