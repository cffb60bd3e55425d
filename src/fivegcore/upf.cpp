#include "fivegcore/upf.hpp"

#include "stats/distributions.hpp"

namespace sixg::core5g {
namespace {

constexpr RuleTable::Mode kTableMode = RuleTable::Mode::kLinearScan;
constexpr std::uint32_t kHotCapacity = 64;
/// Host-path baseline constants.
constexpr Duration kHostProcessingMean = Duration::micros(9);
constexpr double kHostThroughputMpps = 3.1;
/// Relative SmartNIC factors from [32]/[33].
constexpr double kSmartnicLatencyFactor = 3.75;
constexpr double kSmartnicThroughputFactor = 2.0;
/// Current offered load as a fraction of capacity (queueing driver).
constexpr double kOfferedLoad = 0.4;
static_assert(kOfferedLoad >= 0.0 && kOfferedLoad <= 0.97,
              "offered load must keep the M/M/1 pipeline queue stable");

}  // namespace

Upf::Upf(Config config)
    : config_(config), rules_(kTableMode, kHotCapacity) {}

double Upf::max_throughput_mpps() const {
  return config_.datapath == UpfDatapath::kSmartNic
             ? kHostThroughputMpps * kSmartnicThroughputFactor
             : kHostThroughputMpps;
}

Duration Upf::mean_pipeline_latency() const {
  const double factor = config_.datapath == UpfDatapath::kSmartNic
                            ? 1.0 / kSmartnicLatencyFactor
                            : 1.0;
  return kHostProcessingMean * factor;
}

Duration Upf::sample_packet_latency(std::uint64_t flow_key, Rng& rng) {
  // Pipeline: lognormal around the datapath mean (heavy tail from cache
  // misses / host interrupts, much lighter on the NIC).
  const double mean_us = mean_pipeline_latency().us();
  const double sigma =
      config_.datapath == UpfDatapath::kSmartNic ? 0.18 : 0.45;
  const stats::Lognormal pipeline =
      stats::Lognormal::from_median(mean_us, sigma);

  Duration d = Duration::from_micros_f(pipeline.sample(rng));

  // Rule lookup (shared table model).
  d += rules_.lookup(flow_key).latency;

  // Queueing: M/M/1 on the packet pipeline at the offered load.
  const double service_us = 1.0 / max_throughput_mpps();  // us per packet
  const double mean_wait_us =
      service_us * kOfferedLoad / (1.0 - kOfferedLoad);
  d += Duration::from_micros_f(
      stats::ShiftedExponential{0.0, mean_wait_us}.sample(rng));
  return d;
}

}  // namespace sixg::core5g
