#include "oran/handover.hpp"

#include <algorithm>

#include "stats/distributions.hpp"

namespace sixg::oran {
namespace {

constexpr Duration kMeasurementReport = Duration::from_millis_f(2.0);
constexpr Duration kBackhaulToCore = Duration::from_millis_f(6.5);  ///< one way
constexpr Duration kCoreProcessing = Duration::from_millis_f(3.0);  ///< AMF+SMF
constexpr Duration kPathSwitch = Duration::from_millis_f(4.0);
constexpr Duration kGnbProcessing = Duration::from_millis_f(1.2);
constexpr Duration kRachAccess = Duration::from_millis_f(2.5);
/// Control events the core (or RIC) processes per second.
constexpr double kCoreCapacityPerSec = 1500.0;
constexpr double kRicCapacityPerSec = 3000.0;

}  // namespace

const char* to_string(HandoverArchitecture a) {
  switch (a) {
    case HandoverArchitecture::kCoreAnchored:
      return "core-anchored (5G baseline)";
    case HandoverArchitecture::kRicConverged:
      return "RIC-converged (6G)";
    case HandoverArchitecture::kHybrid:
      return "hybrid";
  }
  return "?";
}

Duration HandoverModel::sample_interruption(HandoverArchitecture arch,
                                            double rate, Rng& rng) const {
  const auto queueing = [&](double capacity) {
    const double u = std::clamp(rate / capacity, 0.0, 0.97);
    const double service_ms = 1000.0 / capacity;
    return Duration::from_millis_f(stats::ShiftedExponential{
        0.0, service_ms * u / (1.0 - u)}.sample(rng));
  };
  const auto jitter = [&](Duration d) {
    return d * stats::Lognormal::from_median(1.0, 0.15).sample(rng);
  };

  Duration total = jitter(kMeasurementReport);
  switch (arch) {
    case HandoverArchitecture::kCoreAnchored:
      // gNB -> core -> decision -> path switch -> target gNB, then RACH.
      total += jitter(kBackhaulToCore) * 2;
      total += jitter(kCoreProcessing);
      total += queueing(kCoreCapacityPerSec);
      total += jitter(kPathSwitch);
      total += jitter(kGnbProcessing);
      total += jitter(kRachAccess);
      break;
    case HandoverArchitecture::kRicConverged: {
      // Everything stays at the edge: RIC decision + local path update.
      const Duration edge_leg = Duration::from_millis_f(0.9);
      total += jitter(edge_leg) * 2;
      total += queueing(kRicCapacityPerSec);
      total += jitter(kGnbProcessing);
      total += jitter(kRachAccess);
      break;
    }
    case HandoverArchitecture::kHybrid:
      // gNB executes break-before-make immediately; the RIC confirms the
      // policy asynchronously, so only local costs block the user plane.
      total += jitter(kGnbProcessing) * 2;
      total += jitter(kRachAccess);
      total += queueing(kRicCapacityPerSec) * 0.25;  // async share
      break;
  }
  return total;
}

stats::Summary HandoverModel::storm(HandoverArchitecture arch, double rate,
                                    std::uint32_t count, Rng& rng) const {
  stats::Summary s;
  for (std::uint32_t i = 0; i < count; ++i)
    s.add(sample_interruption(arch, rate, rng).ms());
  return s;
}

TextTable HandoverModel::storm_table(const std::vector<double>& rates,
                                     std::uint32_t count,
                                     std::uint64_t seed) const {
  TextTable t{{"Handover rate (/s)", "Architecture", "Mean interruption (ms)",
               "Max (ms)"}};
  t.set_align(1, TextTable::Align::kLeft);
  for (double rate : rates) {
    for (const auto arch :
         {HandoverArchitecture::kCoreAnchored,
          HandoverArchitecture::kRicConverged, HandoverArchitecture::kHybrid}) {
      Rng rng{derive_seed(seed, std::uint64_t(rate * 7) +
                                    std::uint64_t(arch))};
      const stats::Summary s = storm(arch, rate, count, rng);
      t.add_row({TextTable::num(rate, 0), to_string(arch),
                 TextTable::num(s.mean(), 2), TextTable::num(s.max(), 2)});
    }
  }
  return t;
}

}  // namespace sixg::oran
