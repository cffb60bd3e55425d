#pragma once

#include <string>

#include "common/time.hpp"

namespace sixg::radio {

/// Timing parameters of an access technology generation. All values are
/// one-way contributions of the radio access network (UE <-> gNB <-> RAN
/// edge); the core network is modelled separately (fivegcore).
struct AccessProfile {
  std::string name;

  Duration tti;                 ///< slot duration (transmission time interval)
  Duration sr_period;           ///< scheduling-request opportunity period
  Duration grant_delay;         ///< gNB scheduling + grant signalling
  Duration harq_rtt;            ///< retransmission round trip
  Duration ue_processing;       ///< UE stack (PDCP/RLC/MAC/PHY)
  Duration gnb_processing;      ///< gNB baseband + fronthaul
  Duration ran_edge_delay;      ///< gNB to RAN edge transport
  double base_bler = 0.1;       ///< first-transmission block error rate
  double queue_scale_ms = 20.0; ///< load -> queueing delay scale (ms)

  /// 5G NSA as deployed in the paper's drive test area: mid-band TDD,
  /// option-3x anchoring, SR-based uplink access. Matches the magnitudes
  /// reported by Fezeu et al. [22] once load and BLER are added.
  [[nodiscard]] static AccessProfile fiveg_nsa();

  /// 5G SA with mini-slot scheduling and configured grants; the "below
  /// 5 ms" target deployments [34].
  [[nodiscard]] static AccessProfile fiveg_sa_urllc();

  /// 6G target per She et al. [5]: 100 us-class radio latency.
  [[nodiscard]] static AccessProfile sixg();
};

}  // namespace sixg::radio
