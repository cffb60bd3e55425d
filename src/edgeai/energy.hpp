/// @file energy.hpp — per-request inference energy accounting: what the
/// device battery pays to transmit, wait and receive, and what the serving
/// accelerator pays to compute (amortised over the batch). The UE-side
/// power-state decomposition follows the radio::GnbEnergyModel idiom
/// (static floor + load-proportional term), applied to the device.
#pragma once

#include "common/table.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "edgeai/accelerator.hpp"
#include "edgeai/model.hpp"

namespace sixg::edgeai {

// UE radio power states during one offloaded inference.
inline constexpr double kDeviceTxWatts = 2.2;  ///< uplink transmission burst
inline constexpr double kDeviceRxWatts = 1.1;  ///< downlink reception
/// Connected-idle while awaiting the result.
inline constexpr double kDeviceIdleWatts = 0.12;

/// Where the joules of one request went. Device-side terms
/// (uplink/downlink/wait, plus compute when executing locally) drain the
/// battery; `server_compute_j` is the infrastructure's share.
struct EnergyBreakdown {
  double uplink_j = 0.0;          ///< device TX of the request payload
  double downlink_j = 0.0;        ///< device RX of the response
  double wait_j = 0.0;            ///< device idle during the round trip
  double device_compute_j = 0.0;  ///< on-device NPU execution
  double server_compute_j = 0.0;  ///< per-request share of the batch

  [[nodiscard]] double device_total() const {
    return uplink_j + downlink_j + wait_j + device_compute_j;
  }
  [[nodiscard]] double total() const {
    return device_total() + server_compute_j;
  }

  EnergyBreakdown& operator+=(const EnergyBreakdown& o);
  EnergyBreakdown& operator/=(double n);
};

/// Energy accounting for one device/link configuration.
class InferenceEnergyModel {
 public:
  struct Config {
    DataRate uplink = DataRate::mbps(75);
    DataRate downlink = DataRate::mbps(300);
  };

  explicit InferenceEnergyModel(Config config) : config_(config) {}

  /// Local execution on the device accelerator: compute only, no radio.
  [[nodiscard]] EnergyBreakdown local(const AcceleratorProfile& device,
                                      const ModelProfile& model) const;

  /// Offloaded execution: the device transmits the input, idles for
  /// `round_trip` (end-to-end latency minus its own TX/RX airtime) and
  /// receives the output; the server's batch energy is amortised over
  /// `batch` requests.
  [[nodiscard]] EnergyBreakdown offloaded(const ModelProfile& model,
                                          const AcceleratorProfile& server,
                                          Duration round_trip,
                                          std::uint32_t batch) const;

  /// Device airtime of the request payload at the configured uplink rate.
  [[nodiscard]] Duration uplink_airtime(const ModelProfile& model) const {
    return config_.uplink.transmission_time(model.input_size);
  }
  /// Device airtime of the response at the configured downlink rate.
  [[nodiscard]] Duration downlink_airtime(const ModelProfile& model) const {
    return config_.downlink.transmission_time(model.output_size);
  }

 private:
  Config config_;
};

}  // namespace sixg::edgeai
