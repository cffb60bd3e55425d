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

constexpr std::uint32_t kHorizonSteps = 1440;    ///< one step = one minute
constexpr double kSessionsPerInstance = 1000.0;  ///< capacity of one UPF
constexpr double kMeanSessions = 4200.0;         ///< diurnal mean offered
constexpr double kDiurnalAmplitude = 0.8;        ///< peak swing vs mean
constexpr double kNoise = 0.06;                  ///< relative load noise
/// Flash crowds (events, outage fail-overs): sudden extra sessions.
constexpr double kSurgeProbability = 0.004;  ///< onset per step
constexpr double kSurgeMagnitude = 0.35;     ///< relative to mean
constexpr std::uint32_t kSurgeDurationSteps = 25;
constexpr std::uint32_t kSpinupSteps = 6;      ///< instance boot time
constexpr std::uint32_t kStaticInstances = 6;  ///< kStatic pool size
constexpr double kTargetUtilization = 0.7;
constexpr double kViolationUtilization = 0.95;  ///< SLA breach threshold

double diurnal_sessions(std::uint32_t t) {
  const double day = double(t) / double(kHorizonSteps);
  // Single broad daily peak (mobile core load follows the population's
  // waking hours).
  const double shape =
      0.5 * (1.0 - std::cos(2.0 * std::numbers::pi * day));
  return kMeanSessions *
         (1.0 - kDiurnalAmplitude / 2.0 + kDiurnalAmplitude * shape);
}

}  // namespace

UpfAutoscaleStudy::Outcome UpfAutoscaleStudy::run(ScalingPolicy policy,
                                                  const Params& params) {
  Outcome out;
  out.policy = policy;
  Rng rng{params.seed};

  double instances = double(kStaticInstances);
  double pending_instances = 0.0;
  std::uint32_t pending_eta = 0;
  std::uint32_t surge_left = 0;
  double util_sum = 0.0;

  // The scaling control loop ticks once per simulated minute on the
  // kernel's timer wheel (kHorizonSteps of them); the per-step model is
  // unchanged, so outcomes match the former plain loop exactly.
  netsim::Simulator sim;
  std::uint32_t t = 0;
  netsim::Simulator::TimerHandle tick;
  tick = sim.schedule_every(Duration{}, Duration::seconds(60), [&] {
    if (surge_left == 0 && rng.chance(kSurgeProbability))
      surge_left = kSurgeDurationSteps;
    double sessions =
        diurnal_sessions(t) * (1.0 + kNoise * (2.0 * rng.uniform() - 1.0));
    if (surge_left > 0) {
      sessions += kMeanSessions * kSurgeMagnitude;
      --surge_left;
    }

    if (pending_eta > 0 && --pending_eta == 0) instances = pending_instances;

    const double capacity = instances * kSessionsPerInstance;
    const double utilization = sessions / capacity;
    if (utilization > kViolationUtilization) ++out.violation_steps;
    util_sum += std::min(utilization, 1.5);
    out.instance_hours += instances / 60.0;

    const auto scale_to = [&](double needed_sessions) {
      const double target = std::max(
          1.0, std::ceil(needed_sessions / kSessionsPerInstance /
                         kTargetUtilization));
      if (pending_eta == 0 && target != instances) {
        pending_instances = target;
        // Scale-down applies immediately (draining), scale-up waits for
        // the boot.
        if (target < instances) {
          instances = target;
          pending_eta = 0;
        } else {
          pending_eta = kSpinupSteps;
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
            diurnal_sessions(t + kSpinupSteps + 3) * (1.0 + kNoise);
        const double future_util =
            forecast / (instances * kSessionsPerInstance);
        if (future_util > 0.85 || future_util < 0.45) scale_to(forecast);
        break;
      }
    }

    if (++t == kHorizonSteps) tick.cancel();
  });
  sim.run();

  out.mean_utilization = util_sum / double(kHorizonSteps);
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
