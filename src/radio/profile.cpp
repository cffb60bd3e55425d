#include "radio/profile.hpp"

namespace sixg::radio {

using namespace sixg::literals;

AccessProfile AccessProfile::fiveg_nsa() {
  AccessProfile p;
  p.name = "5G-NSA";
  p.tti = 500_us;
  p.sr_period = 5_ms;
  // Covers SR decoding, scheduling and the grant-to-data gap (k2), which
  // are near-deterministic for a periodic-ping workload.
  p.grant_delay = Duration::from_millis_f(5.3);
  p.harq_rtt = 8_ms;
  p.ue_processing = Duration::from_millis_f(3.5);
  p.gnb_processing = Duration::from_millis_f(2.5);
  p.ran_edge_delay = Duration::from_millis_f(1.5);
  p.base_bler = 0.10;
  p.queue_scale_ms = 10.0;
  return p;
}

AccessProfile AccessProfile::fiveg_sa_urllc() {
  AccessProfile p;
  p.name = "5G-SA-URLLC";
  p.tti = 125_us;  // mini-slot (numerology 2, 2-symbol scheduling)
  p.sr_period = 500_us;  // configured grants make SR waits rare/short
  p.grant_delay = 400_us;
  p.harq_rtt = 1_ms;
  p.ue_processing = 300_us;
  p.gnb_processing = 250_us;
  p.ran_edge_delay = 200_us;
  p.base_bler = 0.01;  // conservative MCS for reliability
  p.queue_scale_ms = 2.0;
  return p;
}

AccessProfile AccessProfile::sixg() {
  AccessProfile p;
  p.name = "6G";
  p.tti = 20_us;
  p.sr_period = 50_us;  // grant-free access dominates
  p.grant_delay = 20_us;
  p.harq_rtt = 100_us;
  p.ue_processing = 20_us;
  p.gnb_processing = 15_us;
  p.ran_edge_delay = 10_us;
  p.base_bler = 0.005;
  p.queue_scale_ms = 0.05;
  return p;
}

}  // namespace sixg::radio
