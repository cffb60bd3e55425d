/// @file serving.hpp — end-to-end inference-serving simulation: an open
/// request stream crosses a sampled network path, queues at an
/// AcceleratorServer with dynamic batching, and returns; the study
/// reports the latency decomposition, batching behaviour and per-request
/// energy. One ServingStudy run = one Simulator timeline = one seed.
///
/// A run is a one-server run of the fleet engine (fleet.hpp, see
/// docs/ARCHITECTURE.md "Serving hot path") on the study's own RNG
/// streams: arrival, uplink and downlink streams are independent; uplink
/// draws happen in arrival order, downlink draws in completion order.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "edgeai/fleet.hpp"

namespace sixg::edgeai {

/// Runs one inference-serving workload on one simulator timeline.
class ServingStudy {
 public:
  using DelaySampler = FleetStudy::DelaySampler;

  struct Config {
    ModelProfile model = ModelZoo::at("det-base");
    AcceleratorProfile accelerator = AcceleratorProfile::edge_gpu();
    AcceleratorServer::BatchingConfig batching;
    InferenceEnergyModel::Config energy;

    double arrivals_per_second = 400.0;  ///< Poisson open-loop offered load
    std::uint32_t requests = 2000;       ///< arrivals to generate
    /// One-way network traversals (radio + wired path); a null leg means
    /// the hop does not exist (on-device serving). Both set or both null,
    /// as for a fleet server (FleetStudy::ServerSpec).
    NetLeg uplink;    ///< request path towards the server
    NetLeg downlink;  ///< response path back to the device
    std::uint64_t seed = 1;

    /// Retain the raw per-request end-to-end samples (exact within(),
    /// empirical samplers) — O(requests) report memory. Disable for
    /// million-request runs: the report then streams into the histogram
    /// and the capped reservoir, O(bins + cap) memory.
    bool retain_samples = true;
  };

  /// The fleet report of the one-server run, plus the retained samples.
  struct Report : FleetStudy::Report {
    /// Raw per-request end-to-end samples (ms), in completion order —
    /// feeds empirical samplers (e.g. the AR frame loop). Empty when the
    /// run streamed (Config::retain_samples == false).
    std::vector<double> e2e_samples_ms;

    /// Share of completed requests within `budget`. With retained
    /// samples this is exact: one binary search over the finalize()d
    /// sorted snapshot. Streamed reports answer from the histogram CDF
    /// (linear interpolation inside the containing bin; budgets beyond
    /// the 250 ms histogram range clamp to its end — a lower bound, since
    /// overflow samples are only known to exceed the range). Pure
    /// read: safe to call concurrently.
    [[nodiscard]] double within(Duration budget) const;

    /// (Re)build the sorted snapshot within() searches. run() calls
    /// this; hand-assembled reports must call it after filling
    /// e2e_samples_ms — within() asserts the snapshot is current.
    void finalize();

   private:
    std::vector<double> sorted_e2e_ms_;  ///< sorted snapshot, finalize()
  };

  /// Pure function of the config (determinism contract): same config ->
  /// same report, independent of wall clock and thread count.
  [[nodiscard]] static Report run(const Config& config);
};

}  // namespace sixg::edgeai
