#include "slicing/reconfig.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace sixg::slicing {

const char* to_string(ReconfigPolicy p) {
  switch (p) {
    case ReconfigPolicy::kReactive:
      return "reactive";
    case ReconfigPolicy::kPredictive:
      return "predictive";
  }
  return "?";
}

namespace {

constexpr std::uint32_t kHorizonSteps = 1440;  ///< one step = one minute, 24 h
constexpr double kBaseLoad = 0.40;  ///< of initially allocated capacity
constexpr double kDiurnalAmplitude = 0.75;  ///< predictable peak on top of base
constexpr double kSurgeProbability = 0.006;  ///< per-step surprise-surge onset
constexpr double kSurgeMagnitude = 0.35;
constexpr std::uint32_t kSurgeDurationSteps = 20;
constexpr double kViolationThreshold = 0.95;  ///< load/capacity ratio
/// Time to apply a new allocation.
constexpr std::uint32_t kRescaleDelaySteps = 8;
constexpr double kHeadroomTarget = 0.70;  ///< desired post-rescale ratio
/// Predictive policy forecasting margin beyond the rescale delay.
constexpr std::uint32_t kForecastSteps = 4;
constexpr double kEwmaAlpha = 0.25;

/// The predictable part of the slice load: a diurnal curve with a morning
/// and an evening peak, as hypervisor-placement traces show. Both policies
/// face it; only the predictive one exploits knowing its shape.
double diurnal(std::uint32_t t) {
  // One horizon = one day.
  const double day = double(t) / double(kHorizonSteps);
  const double main_peak =
      std::exp(-std::pow((day - 0.40) / 0.10, 2.0));  // morning
  const double evening_peak =
      std::exp(-std::pow((day - 0.80) / 0.07, 2.0));
  return kBaseLoad +
         kDiurnalAmplitude * std::max(main_peak, 0.85 * evening_peak);
}

}  // namespace

ReconfigStudy::Outcome ReconfigStudy::run(ReconfigPolicy policy,
                                          const Params& params) {
  Outcome out;
  out.policy = policy;
  Rng rng{params.seed};

  double capacity = 1.0;
  double pending_capacity = 0.0;
  std::uint32_t pending_eta = 0;
  std::uint32_t surge_left = 0;
  double residual_ewma = 0.0;  // EWMA of (load - diurnal), for forecasting
  double load_sum = 0.0;
  double alloc_sum = 0.0;
  double util_sum = 0.0;

  for (std::uint32_t t = 0; t < kHorizonSteps; ++t) {
    // --- offered load -----------------------------------------------------
    const double predictable = diurnal(t);
    if (surge_left == 0 && rng.chance(kSurgeProbability))
      surge_left = kSurgeDurationSteps;
    double load = predictable;
    if (surge_left > 0) {
      load += kSurgeMagnitude;
      --surge_left;
    }
    load *= 1.0 + 0.05 * (rng.uniform() - 0.5);

    // --- apply pending rescale ---------------------------------------------
    if (pending_eta > 0) {
      if (--pending_eta == 0) capacity = pending_capacity;
    }

    const double utilization = load / capacity;
    if (utilization > kViolationThreshold) ++out.violations;

    residual_ewma = kEwmaAlpha * (load - predictable) +
                    (1.0 - kEwmaAlpha) * residual_ewma;

    // --- control ------------------------------------------------------------
    const auto want_rescale_to = [&](double target_load) {
      const double target_capacity =
          std::max(1.0, target_load / kHeadroomTarget);
      if (pending_eta == 0 &&
          std::fabs(target_capacity - capacity) / capacity > 0.10) {
        pending_capacity = target_capacity;
        pending_eta = kRescaleDelaySteps;
        ++out.reconfigurations;
      }
    };

    switch (policy) {
      case ReconfigPolicy::kReactive:
        // Acts only on what it currently sees; pays the rescale delay in
        // violation time whenever the (predictable!) ramp crosses the
        // threshold.
        if (utilization > kViolationThreshold)
          want_rescale_to(load);
        else if (utilization < 0.35)
          want_rescale_to(load);
        break;
      case ReconfigPolicy::kPredictive: {
        // Knows the diurnal shape (learned from previous days) and adds
        // the instantaneous residual (surge detector) plus a safety
        // margin. Falls back to reacting when a surprise surge lands
        // anyway — prediction augments reaction, it does not replace it.
        const std::uint32_t ahead = t + kRescaleDelaySteps + kForecastSteps;
        const double residual =
            std::max({0.0, residual_ewma, load - predictable});
        const double forecast = diurnal(ahead) + residual + 0.04;
        if (utilization > kViolationThreshold)
          want_rescale_to(std::max(load, forecast));
        else if (forecast / capacity > 0.90 * kViolationThreshold ||
                 forecast / capacity < 0.35)
          want_rescale_to(forecast);
        break;
      }
    }

    load_sum += load;
    alloc_sum += capacity;
    util_sum += utilization;
    out.peak_utilization = std::max(out.peak_utilization, utilization);
  }

  out.mean_utilization = util_sum / double(kHorizonSteps);
  out.overprovision_factor = alloc_sum / load_sum;
  return out;
}

TextTable ReconfigStudy::comparison(const std::vector<Outcome>& outcomes) {
  TextTable t{{"Policy", "Violation steps", "Reconfigs", "Mean util",
               "Peak util", "Overprovision"}};
  t.set_align(0, TextTable::Align::kLeft);
  for (const Outcome& o : outcomes) {
    t.add_row({to_string(o.policy),
               TextTable::integer(std::int64_t(o.violations)),
               TextTable::integer(std::int64_t(o.reconfigurations)),
               TextTable::num(o.mean_utilization * 100.0, 1) + " %",
               TextTable::num(o.peak_utilization * 100.0, 1) + " %",
               TextTable::num(o.overprovision_factor, 2) + "x"});
  }
  return t;
}

}  // namespace sixg::slicing
