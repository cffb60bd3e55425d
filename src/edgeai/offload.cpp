#include "edgeai/offload.hpp"

#include <utility>

#include "common/assert.hpp"

namespace sixg::edgeai {
namespace {

const AcceleratorProfile kDeviceAccelerator = AcceleratorProfile::device_npu();
const AcceleratorProfile kEdgeAccelerator = AcceleratorProfile::edge_gpu();
const AcceleratorProfile kCloudAccelerator = AcceleratorProfile::cloud_gpu();
/// Typical batch the cloud tier amortises a request into.
constexpr std::uint32_t kCloudBatch = 16;

}  // namespace

const char* to_string(ExecutionTier tier) {
  switch (tier) {
    case ExecutionTier::kDevice:
      return "device";
    case ExecutionTier::kEdge:
      return "edge";
    case ExecutionTier::kCloud:
      return "cloud";
  }
  return "?";
}

const char* to_string(OffloadPolicy policy) {
  switch (policy) {
    case OffloadPolicy::kStaticDevice:
      return "static-device";
    case OffloadPolicy::kStaticEdge:
      return "static-edge";
    case OffloadPolicy::kStaticCloud:
      return "static-cloud";
    case OffloadPolicy::kLatencyGreedy:
      return "latency-greedy";
    case OffloadPolicy::kEnergyAware:
      return "energy-aware";
  }
  return "?";
}

OffloadPlanner::OffloadPlanner(Config config)
    : config_(std::move(config)),
      energy_(InferenceEnergyModel::Config{config_.uplink, config_.downlink}) {}

TierEstimate OffloadPlanner::estimate(ExecutionTier tier,
                                      const ModelProfile& model,
                                      Duration radio_rtt, Duration edge_queue,
                                      Duration cloud_queue) const {
  TierEstimate e;
  e.tier = tier;
  switch (tier) {
    case ExecutionTier::kDevice: {
      e.feasible = kDeviceAccelerator.fits(model);
      if (!e.feasible) break;
      e.service = kDeviceAccelerator.service_time(model, 1);
      e.total = e.service;
      const EnergyBreakdown b = energy_.local(kDeviceAccelerator, model);
      e.device_joules = b.device_total();
      break;
    }
    case ExecutionTier::kEdge:
    case ExecutionTier::kCloud: {
      const bool cloud = tier == ExecutionTier::kCloud;
      const AcceleratorProfile& acc =
          cloud ? kCloudAccelerator : kEdgeAccelerator;
      const std::uint32_t batch = cloud ? kCloudBatch : kEdgeBatch;
      e.feasible = acc.fits(model);
      if (!e.feasible) break;
      e.network = radio_rtt + energy_.uplink_airtime(model) +
                  energy_.downlink_airtime(model);
      if (cloud) e.network += config_.edge_cloud_rtt;
      e.queue = cloud ? cloud_queue : edge_queue;
      e.service = acc.service_time(model, batch);
      e.total = e.network + e.queue + e.service;
      const EnergyBreakdown b = energy_.offloaded(model, acc, e.total, batch);
      e.device_joules = b.device_total();
      break;
    }
  }
  return e;
}

TierEstimate OffloadPlanner::choose(OffloadPolicy policy,
                                    const ModelProfile& model,
                                    Duration radio_rtt, Duration edge_queue,
                                    Duration cloud_queue) const {
  const auto est = [&](ExecutionTier tier) {
    return estimate(tier, model, radio_rtt, edge_queue, cloud_queue);
  };
  switch (policy) {
    case OffloadPolicy::kStaticDevice:
      return est(ExecutionTier::kDevice);
    case OffloadPolicy::kStaticEdge:
      return est(ExecutionTier::kEdge);
    case OffloadPolicy::kStaticCloud:
      return est(ExecutionTier::kCloud);
    case OffloadPolicy::kLatencyGreedy:
    case OffloadPolicy::kEnergyAware:
      break;
  }

  // Evaluate all three tiers once; at least the cloud tier is always
  // feasible (the zoo's largest model fits a datacenter GPU).
  std::array<TierEstimate, 3> all;
  for (std::size_t i = 0; i < kAllTiers.size(); ++i) all[i] = est(kAllTiers[i]);

  const TierEstimate* fastest = nullptr;
  for (const TierEstimate& e : all) {
    if (!e.feasible) continue;
    if (fastest == nullptr || e.total < fastest->total) fastest = &e;
  }
  SIXG_ASSERT(fastest != nullptr, "no feasible execution tier");
  if (policy == OffloadPolicy::kLatencyGreedy) return *fastest;

  // Energy-aware: cheapest battery among deadline-feasible tiers.
  const TierEstimate* frugal = nullptr;
  for (const TierEstimate& e : all) {
    if (!e.feasible || e.total > config_.latency_budget) continue;
    if (frugal == nullptr || e.device_joules < frugal->device_joules)
      frugal = &e;
  }
  return frugal != nullptr ? *frugal : *fastest;
}

}  // namespace sixg::edgeai
