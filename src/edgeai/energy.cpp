#include "edgeai/energy.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace sixg::edgeai {

EnergyBreakdown& EnergyBreakdown::operator+=(const EnergyBreakdown& o) {
  uplink_j += o.uplink_j;
  downlink_j += o.downlink_j;
  wait_j += o.wait_j;
  device_compute_j += o.device_compute_j;
  server_compute_j += o.server_compute_j;
  return *this;
}

EnergyBreakdown& EnergyBreakdown::operator/=(double n) {
  SIXG_ASSERT(n > 0.0, "division by non-positive count");
  uplink_j /= n;
  downlink_j /= n;
  wait_j /= n;
  device_compute_j /= n;
  server_compute_j /= n;
  return *this;
}

EnergyBreakdown InferenceEnergyModel::local(const AcceleratorProfile& device,
                                            const ModelProfile& model) const {
  EnergyBreakdown e;
  e.device_compute_j = device.batch_joules(model, 1);
  return e;
}

EnergyBreakdown InferenceEnergyModel::offloaded(const ModelProfile& model,
                                                const AcceleratorProfile& server,
                                                Duration round_trip,
                                                std::uint32_t batch) const {
  SIXG_ASSERT(batch >= 1, "batch size must be positive");
  EnergyBreakdown e;
  const Duration tx = uplink_airtime(model);
  const Duration rx = downlink_airtime(model);
  e.uplink_j = kDeviceTxWatts * tx.sec();
  e.downlink_j = kDeviceRxWatts * rx.sec();
  // The device idles for whatever part of the round trip it is not
  // actively transmitting or receiving.
  const double idle_sec = std::max(0.0, (round_trip - tx - rx).sec());
  e.wait_j = kDeviceIdleWatts * idle_sec;
  e.server_compute_j = server.batch_joules(model, batch) / double(batch);
  return e;
}

}  // namespace sixg::edgeai
