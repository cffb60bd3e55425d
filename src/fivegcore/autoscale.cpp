#include "fivegcore/autoscale.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "netsim/simulator.hpp"

namespace sixg::core5g {

const char* to_string(ScalingPolicy p) {
  switch (p) {
    case ScalingPolicy::kStatic:
      return "static";
    case ScalingPolicy::kReactive:
      return "reactive";
    case ScalingPolicy::kPredictive:
      return "predictive";
  }
  return "?";
}

namespace {
double diurnal_sessions(const UpfAutoscaleStudy::Params& p, std::uint32_t t) {
  const double day = double(t) / double(p.horizon_steps);
  // Single broad daily peak (mobile core load follows the population's
  // waking hours).
  const double shape =
      0.5 * (1.0 - std::cos(2.0 * std::numbers::pi * day));
  return p.mean_sessions * (1.0 - p.diurnal_amplitude / 2.0 +
                            p.diurnal_amplitude * shape);
}
}  // namespace

UpfAutoscaleStudy::Outcome UpfAutoscaleStudy::run(ScalingPolicy policy,
                                                  const Params& params) {
  Outcome out;
  out.policy = policy;
  Rng rng{params.seed};

  double instances = double(params.static_instances);
  double pending_instances = 0.0;
  std::uint32_t pending_eta = 0;
  std::uint32_t surge_left = 0;
  double util_sum = 0.0;

  // The scaling control loop ticks once per simulated minute on the
  // kernel's timer wheel (horizon_steps of them); the per-step model is
  // unchanged, so outcomes match the former plain loop exactly.
  netsim::Simulator sim;
  std::uint32_t t = 0;
  netsim::Simulator::TimerHandle tick;
  tick = sim.schedule_every(Duration{}, Duration::seconds(60), [&] {
    if (surge_left == 0 && rng.chance(params.surge_probability))
      surge_left = params.surge_duration_steps;
    double sessions = diurnal_sessions(params, t) *
                      (1.0 + params.noise * (2.0 * rng.uniform() - 1.0));
    if (surge_left > 0) {
      sessions += params.mean_sessions * params.surge_magnitude;
      --surge_left;
    }

    if (pending_eta > 0 && --pending_eta == 0) instances = pending_instances;

    const double capacity = instances * params.sessions_per_instance;
    const double utilization = sessions / capacity;
    if (utilization > params.violation_utilization) ++out.violation_steps;
    util_sum += std::min(utilization, 1.5);
    out.instance_hours += instances / 60.0;

    const auto scale_to = [&](double needed_sessions) {
      const double target = std::max(
          1.0, std::ceil(needed_sessions / params.sessions_per_instance /
                         params.target_utilization));
      if (pending_eta == 0 && target != instances) {
        pending_instances = target;
        // Scale-down applies immediately (draining), scale-up waits for
        // the boot.
        if (target < instances) {
          instances = target;
          pending_eta = 0;
        } else {
          pending_eta = params.spinup_steps;
        }
        ++out.scale_actions;
      }
    };

    switch (policy) {
      case ScalingPolicy::kStatic:
        break;
      case ScalingPolicy::kReactive:
        if (utilization > 0.85 || utilization < 0.45) scale_to(sessions);
        break;
      case ScalingPolicy::kPredictive: {
        const double forecast =
            diurnal_sessions(params, t + params.spinup_steps + 3) *
            (1.0 + params.noise);
        const double future_util =
            forecast / (instances * params.sessions_per_instance);
        if (future_util > 0.85 || future_util < 0.45) scale_to(forecast);
        break;
      }
    }

    if (++t == params.horizon_steps) tick.cancel();
  });
  if (params.horizon_steps > 0) sim.run();

  out.mean_utilization = util_sum / double(params.horizon_steps);
  return out;
}

TextTable UpfAutoscaleStudy::comparison(
    const std::vector<Outcome>& outcomes) {
  TextTable t{{"Policy", "SLA violation steps", "Instance-hours",
               "Scale actions", "Mean util"}};
  t.set_align(0, TextTable::Align::kLeft);
  for (const Outcome& o : outcomes) {
    t.add_row({to_string(o.policy),
               TextTable::integer(std::int64_t(o.violation_steps)),
               TextTable::num(o.instance_hours, 1),
               TextTable::integer(std::int64_t(o.scale_actions)),
               TextTable::num(o.mean_utilization * 100.0, 1) + " %"});
  }
  return t;
}

}  // namespace sixg::core5g
