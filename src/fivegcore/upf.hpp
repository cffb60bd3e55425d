#pragma once

#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "fivegcore/rules.hpp"

namespace sixg::core5g {

/// Where the UPF's packet pipeline executes.
enum class UpfDatapath : std::uint8_t {
  kHostCpu,   ///< DPDK-style user-space pipeline through host memory/PCIe
  kSmartNic,  ///< on-NIC pipeline (Jain et al. [32]): bypasses host memory
              ///< and the PCIe bus — 2x throughput, 3.75x lower latency
};

/// User Plane Function: GTP-U termination, PDR/QER lookup, forwarding.
///
/// The latency/throughput constants follow the relative factors the paper
/// cites: a SmartNIC datapath doubles throughput and cuts per-packet
/// processing latency by 3.75x versus the host path [32][33].
class Upf {
 public:
  struct Config {
    UpfDatapath datapath = UpfDatapath::kHostCpu;
  };

  explicit Upf(Config config);

  [[nodiscard]] RuleTable& rules() { return rules_; }
  [[nodiscard]] const RuleTable& rules() const { return rules_; }

  /// Packets per second this instance can sustain.
  [[nodiscard]] double max_throughput_mpps() const;

  /// Sample the full per-packet latency for `flow_key`: GTP handling +
  /// rule lookup + pipeline + load-dependent queueing.
  [[nodiscard]] Duration sample_packet_latency(std::uint64_t flow_key,
                                               Rng& rng);

  /// Deterministic mean pipeline latency (excludes rule-table position
  /// effects); used by placement planners.
  [[nodiscard]] Duration mean_pipeline_latency() const;

 private:
  Config config_;
  RuleTable rules_;
};

}  // namespace sixg::core5g
