#include "apps/federated.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/assert.hpp"
#include "netsim/simulator.hpp"
#include "stats/distributions.hpp"

namespace sixg::apps {
namespace {

constexpr DataSize kModelUpdate = DataSize::megabytes(12);  ///< weight delta
constexpr DataRate kDownlinkRate = DataRate::mbps(150);
constexpr double kLocalTrainingSigma = 0.30;  ///< lognormal spread (stragglers)
constexpr Duration kAggregationCompute = Duration::from_millis_f(180);
constexpr std::uint32_t kClients = 32;
constexpr std::uint32_t kRounds = 50;
static_assert(kClients > 0, "at least one client");
static_assert(kRounds > 0, "at least one round");

}  // namespace

FederatedRoundModel::FederatedRoundModel(LatencySampler network,
                                         Config config)
    : network_(std::move(network)), config_(config) {
  SIXG_ASSERT(network_ != nullptr, "latency sampler required");
}

FederatedRoundModel::Report FederatedRoundModel::run() const {
  Report report;
  Rng rng{config_.seed};
  const stats::Lognormal training = stats::Lognormal::from_median(
      kLocalTrainingMean.sec(), kLocalTrainingSigma);

  const Duration upload = config_.uplink_rate.transmission_time(kModelUpdate);
  const Duration download = kDownlinkRate.transmission_time(kModelUpdate);

  double network_seconds = 0.0;
  double total_seconds = 0.0;
  std::vector<double> client_done(kClients);

  // Synchronous FedAvg as a kernel event chain: each aggregation event
  // computes its round and schedules the next one at the round's actual
  // completion time, so the simulated clock tracks wall-progress of the
  // training job. The per-round model (and its RNG order) is unchanged.
  const auto one_round = [&]() -> double {
    for (std::uint32_t c = 0; c < kClients; ++c) {
      const double train_s = training.sample(rng);
      // Model dissemination + upload, each with a network one-way leg.
      const Duration down_leg = network_(rng) + download;
      const Duration up_leg = network_(rng) + upload;
      client_done[c] = train_s + down_leg.sec() + up_leg.sec();
      network_seconds += down_leg.sec() + up_leg.sec();
    }
    std::sort(client_done.begin(), client_done.end());
    const double slowest = client_done.back();
    const double median = client_done[client_done.size() / 2];
    const double round_s = slowest + kAggregationCompute.sec();
    report.round_seconds.add(round_s);
    report.straggler_wait_seconds.add(slowest - median);
    total_seconds += round_s * double(kClients);
    return round_s;
  };

  netsim::Simulator sim;
  std::uint32_t round = 0;
  struct Step {
    netsim::Simulator* sim;
    const decltype(one_round)* body;
    std::uint32_t* round;
    void operator()() const {
      const double round_s = (*body)();
      if (++*round < kRounds)
        sim->schedule_after(Duration::from_seconds_f(round_s), Step{*this});
    }
  };
  sim.schedule_at(TimePoint{}, Step{&sim, &one_round, &round});
  sim.run();

  report.network_share =
      total_seconds > 0.0 ? network_seconds / total_seconds : 0.0;
  return report;
}

DataRate tcp_throughput_bound(Duration rtt, double loss_rate, DataSize mss) {
  SIXG_ASSERT(loss_rate > 0.0 && loss_rate < 1.0, "loss in (0,1) required");
  SIXG_ASSERT(rtt.ns() > 0, "rtt must be positive");
  const double bits_per_sec =
      double(mss.bit_count()) / (rtt.sec() * std::sqrt(loss_rate));
  return DataRate::bps(std::int64_t(bits_per_sec));
}

DataRate effective_uplink(DataRate access, Duration rtt, double loss_rate) {
  const DataRate bound = tcp_throughput_bound(rtt, loss_rate);
  return bound < access ? bound : access;
}

TextTable federated_comparison(
    const std::vector<FederatedScenario>& scenarios) {
  TextTable t{{"Aggregator", "Mean round (s)", "Straggler wait (s)",
               "Network share"}};
  t.set_align(0, TextTable::Align::kLeft);
  for (const auto& s : scenarios) {
    t.add_row({s.name, TextTable::num(s.report.round_seconds.mean(), 2),
               TextTable::num(s.report.straggler_wait_seconds.mean(), 2),
               TextTable::num(s.report.network_share * 100.0, 1) + " %"});
  }
  return t;
}

}  // namespace sixg::apps
