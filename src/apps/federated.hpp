#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "stats/summary.hpp"

namespace sixg::apps {

/// Federated learning at the edge — one of the paper's named future-work
/// directions (Section VI). Models synchronous FedAvg rounds: N clients
/// train locally, upload model deltas over the access network to an
/// aggregator (edge or cloud), and download the merged model. Round time
/// is gated by the slowest client (stragglers), which is where access
/// latency/bandwidth variance bites.
class FederatedRoundModel {
 public:
  /// Samples one client's uplink/downlink one-way latency (network only).
  using LatencySampler = std::function<Duration(Rng&)>;

  static constexpr Duration kLocalTrainingMean = Duration::seconds(4);

  struct Config {
    DataRate uplink_rate = DataRate::mbps(40);
    std::uint64_t seed = 0xfeda;
  };

  FederatedRoundModel(LatencySampler network, Config config);

  struct Report {
    stats::Summary round_seconds;
    stats::Summary straggler_wait_seconds;  ///< slowest minus median client
    double network_share = 0.0;  ///< fraction of round time spent on network
  };

  [[nodiscard]] Report run() const;

 private:
  LatencySampler network_;
  Config config_;
};

/// Loss-based congestion-control throughput bound (Mathis et al.):
/// rate <= MSS / (RTT * sqrt(loss)). Long-RTT paths through shared
/// transit cannot fill the radio link — the reason model uploads crawl
/// over the detour even when the access rate is ample.
[[nodiscard]] DataRate tcp_throughput_bound(Duration rtt, double loss_rate,
                                            DataSize mss = DataSize::bytes(
                                                1460));

/// Effective uplink rate: access rate capped by the congestion bound.
[[nodiscard]] DataRate effective_uplink(DataRate access, Duration rtt,
                                        double loss_rate);

/// Named rows for the bench comparison table.
struct FederatedScenario {
  std::string name;
  FederatedRoundModel::Report report;
};

[[nodiscard]] TextTable federated_comparison(
    const std::vector<FederatedScenario>& scenarios);

}  // namespace sixg::apps
