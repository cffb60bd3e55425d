#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/time.hpp"

namespace sixg::slicing {

/// Reconfiguration policy of the slicing control plane. The paper's
/// Section V-C closes on exactly this gap: "current hypervisor placement
/// strategies ... typically operate in a reactive rather than predictive
/// manner".
enum class ReconfigPolicy : std::uint8_t {
  kReactive,    ///< migrate/rescale only after an SLO violation is seen
  kPredictive,  ///< forecast load (EWMA + trend) and act ahead of time
};

[[nodiscard]] const char* to_string(ReconfigPolicy p);

/// Discrete-time study of a slice whose offered load follows a diurnal
/// pattern with random surges, served by a hypervisor/resource allocation
/// that can be rescaled — but rescaling takes time. Quantifies how many
/// SLO-violation minutes each policy accumulates.
class ReconfigStudy {
 public:
  struct Params {
    std::uint64_t seed = 0x51ce;
  };

  struct Outcome {
    ReconfigPolicy policy{};
    std::uint32_t violations = 0;        ///< steps in violation
    std::uint32_t reconfigurations = 0;  ///< rescale actions issued
    double mean_utilization = 0.0;
    double peak_utilization = 0.0;
    double overprovision_factor = 0.0;   ///< mean allocated / mean load
  };

  [[nodiscard]] static Outcome run(ReconfigPolicy policy,
                                   const Params& params);

  /// One row per outcome, in the given order.
  [[nodiscard]] static TextTable comparison(
      const std::vector<Outcome>& outcomes);
};

}  // namespace sixg::slicing
