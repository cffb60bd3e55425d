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
  static constexpr std::uint32_t kTotalRules = 2000;  ///< installed PDR/QER
  static constexpr std::uint32_t kActiveFlows = 48;   ///< flows with traffic
  /// Multi-flow UEs (video + haptic + control).
  static constexpr std::uint32_t kFlowsPerUe = 3;

  struct WorkloadParams {
    /// Lookups per evaluation; named like a field because sixg_e2ebench
    /// reads it as `params.lookups`.
    static constexpr std::uint32_t lookups = 200000;
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
