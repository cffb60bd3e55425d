#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "fivegcore/rules.hpp"
#include "stats/summary.hpp"

namespace sixg::oran {

/// The context-aware QoS xApp of Section V-C (after Jain et al. [32]):
/// watches flow activity and keeps the active flows' PDR/QER entries
/// prioritised in the UPF's rule table, so lookups and updates for
/// latency-critical flows stay flat while the table grows. Several flows
/// per UE can be prioritised simultaneously.
class QosXApp {
 public:
  struct WorkloadParams {
    std::uint32_t total_rules = 2000;   ///< installed PDR/QER entries
    std::uint32_t active_flows = 48;    ///< flows with live traffic
    std::uint32_t flows_per_ue = 3;     ///< multi-flow UEs (video+haptic+ctl)
    double zipf_s = 1.1;                ///< activity skew across flows
    std::uint32_t lookups = 200000;
    std::uint64_t seed = 0x90a5;
  };

  /// Outcome of one table organisation under the workload.
  struct Evaluation {
    core5g::RuleTable::Mode mode{};
    stats::Summary lookup_ns;
    stats::Summary update_ns;
    std::size_t prioritised_ues = 0;
  };

  /// Run the synthetic traffic through a table in the given mode. The
  /// xApp prioritises the active flow set up front (as its activity
  /// monitor would converge to in steady state).
  [[nodiscard]] static Evaluation evaluate(core5g::RuleTable::Mode mode,
                                           const WorkloadParams& params);

  /// Comparison table of two evaluations under the same workload: linear
  /// scan vs context-aware.
  [[nodiscard]] static TextTable comparison(const Evaluation& linear,
                                            const Evaluation& context);
};

}  // namespace sixg::oran
