/// @file offload.hpp — device↔edge↔cloud offload planning: composes the
/// radio access round trip (radio::RadioLinkModel), the wired edge→cloud
/// path (topo), payload serialisation and the accelerator queueing/service
/// delay into a per-request execution-tier decision.
#pragma once

#include <array>
#include <cstdint>

#include "common/time.hpp"
#include "common/units.hpp"
#include "edgeai/accelerator.hpp"
#include "edgeai/energy.hpp"
#include "edgeai/model.hpp"

namespace sixg::edgeai {

/// Where a request executes.
enum class ExecutionTier : std::uint8_t { kDevice, kEdge, kCloud };
inline constexpr std::array<ExecutionTier, 3> kAllTiers = {
    ExecutionTier::kDevice, ExecutionTier::kEdge, ExecutionTier::kCloud};

[[nodiscard]] const char* to_string(ExecutionTier tier);

/// How the tier is chosen.
enum class OffloadPolicy : std::uint8_t {
  kStaticDevice,   ///< always local
  kStaticEdge,     ///< always the edge site
  kStaticCloud,    ///< always the cloud (the paper's status quo)
  kLatencyGreedy,  ///< minimise estimated end-to-end latency
  kEnergyAware,    ///< minimise device energy subject to the latency budget
};

[[nodiscard]] const char* to_string(OffloadPolicy policy);

/// One tier's estimated cost for one request.
struct TierEstimate {
  ExecutionTier tier = ExecutionTier::kDevice;
  bool feasible = true;   ///< model fits the tier's accelerator
  Duration network;       ///< radio RTT + WAN RTT + payload serialisation
  Duration queue;         ///< accelerator queueing delay
  Duration service;       ///< batch execution (at the tier's typical batch)
  Duration total;         ///< network + queue + service
  double device_joules = 0.0;  ///< what the battery pays
};

/// Composes the per-tier delay and energy estimates and applies a policy.
///
/// The planner is deliberately an *estimator*, not a simulator: queueing
/// delays for the shared tiers are inputs (measured or predicted by the
/// caller, e.g. from AcceleratorServer telemetry), so the same planner
/// serves both analytic sweeps and closed-loop simulations.
class OffloadPlanner {
 public:
  /// Typical batch the edge tier amortises a request into.
  static constexpr std::uint32_t kEdgeBatch = 4;

  struct Config {
    /// Link budget of the access hop (serialisation of payloads).
    DataRate uplink = DataRate::mbps(75);
    DataRate downlink = DataRate::mbps(300);
    /// Wired round trip edge site <-> cloud (from the topo layer; the
    /// paper's detour makes this the dominant term of the cloud tier).
    Duration edge_cloud_rtt = Duration::from_millis_f(30.0);
    /// Deadline for the energy-aware policy (the AR budget by default).
    Duration latency_budget = Duration::from_millis_f(20.0);
  };

  explicit OffloadPlanner(Config config);

  [[nodiscard]] const Config& config() const { return config_; }

  /// Estimate one tier. `radio_rtt` is the device<->edge access round
  /// trip; `edge_queue` / `cloud_queue` the current accelerator queueing
  /// delay at each shared tier (ignored for the device tier).
  [[nodiscard]] TierEstimate estimate(ExecutionTier tier,
                                      const ModelProfile& model,
                                      Duration radio_rtt, Duration edge_queue,
                                      Duration cloud_queue) const;

  /// Apply `policy` over the three tier estimates.
  ///
  /// kLatencyGreedy picks the feasible tier with the smallest estimated
  /// total, ties broken in kDevice < kEdge < kCloud order. Both shared
  /// tiers contain the access round trip additively, so lowering
  /// `radio_rtt` can only move the choice *towards* the network tiers,
  /// never away from the edge (the monotonicity the tests pin).
  ///
  /// kEnergyAware picks the cheapest-for-the-battery tier among those
  /// meeting `latency_budget`; when none does, it degrades to the
  /// latency-greedy choice.
  [[nodiscard]] TierEstimate choose(OffloadPolicy policy,
                                    const ModelProfile& model,
                                    Duration radio_rtt, Duration edge_queue,
                                    Duration cloud_queue) const;

 private:
  Config config_;
  InferenceEnergyModel energy_;
};

}  // namespace sixg::edgeai
