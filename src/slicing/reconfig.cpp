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
/// The predictable part of the slice load: a diurnal curve with a morning
/// and an evening peak, as hypervisor-placement traces show. Both policies
/// face it; only the predictive one exploits knowing its shape.
double diurnal(double base, double amplitude, std::uint32_t t,
               std::uint32_t horizon) {
  const double day = double(t) / double(horizon);  // one horizon = one day
  const double main_peak =
      std::exp(-std::pow((day - 0.40) / 0.10, 2.0));  // morning
  const double evening_peak =
      std::exp(-std::pow((day - 0.80) / 0.07, 2.0));
  return base + amplitude * std::max(main_peak, 0.85 * evening_peak);
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

  for (std::uint32_t t = 0; t < params.horizon_steps; ++t) {
    // --- offered load -----------------------------------------------------
    const double predictable = diurnal(params.base_load,
                                       params.diurnal_amplitude, t,
                                       params.horizon_steps);
    if (surge_left == 0 && rng.chance(params.surge_probability))
      surge_left = params.surge_duration_steps;
    double load = predictable;
    if (surge_left > 0) {
      load += params.surge_magnitude;
      --surge_left;
    }
    load *= 1.0 + 0.05 * (rng.uniform() - 0.5);

    // --- apply pending rescale ---------------------------------------------
    if (pending_eta > 0) {
      if (--pending_eta == 0) capacity = pending_capacity;
    }

    const double utilization = load / capacity;
    if (utilization > params.violation_threshold) ++out.violations;

    residual_ewma = params.ewma_alpha * (load - predictable) +
                    (1.0 - params.ewma_alpha) * residual_ewma;

    // --- control ------------------------------------------------------------
    const auto want_rescale_to = [&](double target_load) {
      const double target_capacity =
          std::max(1.0, target_load / params.headroom_target);
      if (pending_eta == 0 &&
          std::fabs(target_capacity - capacity) / capacity > 0.10) {
        pending_capacity = target_capacity;
        pending_eta = params.rescale_delay_steps;
        ++out.reconfigurations;
      }
    };

    switch (policy) {
      case ReconfigPolicy::kReactive:
        // Acts only on what it currently sees; pays the rescale delay in
        // violation time whenever the (predictable!) ramp crosses the
        // threshold.
        if (utilization > params.violation_threshold)
          want_rescale_to(load);
        else if (utilization < 0.35)
          want_rescale_to(load);
        break;
      case ReconfigPolicy::kPredictive: {
        // Knows the diurnal shape (learned from previous days) and adds
        // the instantaneous residual (surge detector) plus a safety
        // margin. Falls back to reacting when a surprise surge lands
        // anyway — prediction augments reaction, it does not replace it.
        const std::uint32_t ahead =
            t + params.rescale_delay_steps + params.forecast_steps;
        const double residual =
            std::max({0.0, residual_ewma, load - predictable});
        const double forecast =
            diurnal(params.base_load, params.diurnal_amplitude, ahead,
                    params.horizon_steps) +
            residual + 0.04;
        if (utilization > params.violation_threshold)
          want_rescale_to(std::max(load, forecast));
        else if (forecast / capacity > 0.90 * params.violation_threshold ||
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

  out.mean_utilization = util_sum / double(params.horizon_steps);
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
