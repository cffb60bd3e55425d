/// @file sampler.hpp — in-timeline periodic sampler: records time series
/// of model signals (queue depth, in-flight count, SLO attainment) at a
/// fixed simulated-time cadence, feeding the stats streaming machinery.
///
/// The sampler schedules itself on the instrumented Simulator, so its
/// ticks consume seq numbers. That is deterministic-by-construction —
/// the tick chain is a pure function of the cadence — and it preserves
/// the RELATIVE order of all model events (ties in simulated time are
/// still broken by scheduling order among the model's own events). The
/// fleet engines stop the sampler when their last request releases, so
/// the sampler never extends a run past its uninstrumented end and the
/// report digest stays byte-identical. The digest-equality tests in
/// tests/test_obs.cpp enforce exactly this.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "netsim/simulator.hpp"
#include "obs/obs.hpp"

namespace sixg::obs {

/// Samples a set of named signals every `every` of simulated time and
/// publishes one SeriesResult per signal to the Runtime when the run
/// ends. One sampler per engine/shard; single-threaded like the
/// Simulator it rides on.
class PeriodicSampler {
 public:
  struct Config {
    Duration every;
  };

  /// `key` labels every series this sampler publishes (engine seed);
  /// `shard` is the pod/shard index. The reservoir seed derives from
  /// `key`, so quantiles are a pure function of the sampled stream.
  PeriodicSampler(netsim::Simulator& sim, Config config, std::uint64_t key,
                  std::uint32_t shard);

  PeriodicSampler(const PeriodicSampler&) = delete;
  PeriodicSampler& operator=(const PeriodicSampler&) = delete;

  /// Register a signal before start(). `read` is called at every tick on
  /// the simulator's thread.
  void add_series(std::string name, std::function<double()> read);

  /// Arm the first tick (now() + every).
  void start();

  /// Disarm: no further ticks fire. Idempotent; safe from inside a tick
  /// or any model action.
  void stop();

  /// Publish every series to Runtime::publish_series. Called once by the
  /// owning engine after the run completes; safe to call with zero ticks
  /// recorded (series export with count 0).
  void publish();

 private:
  struct Series {
    std::string name;
    std::function<double()> read;
    stats::Summary summary;
    stats::ReservoirQuantile quantiles;
    std::vector<std::pair<double, double>> points;
    std::size_t stride = 1;  ///< record every stride-th tick
  };

  void tick();

  netsim::Simulator& sim_;
  netsim::Simulator::TimerHandle handle_;
  Config config_;
  std::uint64_t key_;
  std::uint32_t shard_;
  std::vector<Series> series_;
  std::uint64_t ticks_ = 0;
  bool stopped_ = false;
};

}  // namespace sixg::obs
