#include "oran/qos_xapp.hpp"

#include <cmath>
#include <vector>

#include "common/assert.hpp"

namespace sixg::oran {

namespace {
/// Sample a flow index from a Zipf distribution over [0, n) via inverse
/// CDF on precomputed cumulative weights.
class ZipfSampler {
 public:
  ZipfSampler(std::uint32_t n, double s) {
    cumulative_.reserve(n);
    double total = 0.0;
    for (std::uint32_t i = 1; i <= n; ++i) {
      total += 1.0 / std::pow(double(i), s);
      cumulative_.push_back(total);
    }
  }
  [[nodiscard]] std::uint32_t sample(Rng& rng) const {
    const double u = rng.uniform() * cumulative_.back();
    const auto it =
        std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
    return std::uint32_t(it - cumulative_.begin());
  }

 private:
  std::vector<double> cumulative_;
};
}  // namespace

QosXApp::Evaluation QosXApp::evaluate(core5g::RuleTable::Mode mode,
                                      const WorkloadParams& params) {
  SIXG_ASSERT(params.active_flows <= params.total_rules,
              "active flows must have rules installed");
  Evaluation out;
  out.mode = mode;

  core5g::RuleTable table{mode, /*hot_capacity=*/params.active_flows};

  // Install the full rule population. Active flows sit at the *end* of the
  // precedence order — the realistic worst case: long-lived default rules
  // precede recently added application flows.
  const std::uint32_t inactive = params.total_rules - params.active_flows;
  for (std::uint32_t i = 0; i < inactive; ++i) {
    (void)table.add_rule(core5g::PdrRule{i, 0x100000ULL + i,
                                         /*ue_id=*/i / 8,
                                         /*precedence=*/int(i)});
  }
  std::vector<std::uint64_t> active_keys;
  for (std::uint32_t i = 0; i < params.active_flows; ++i) {
    const std::uint64_t key = 0x900000ULL + i;
    active_keys.push_back(key);
    (void)table.add_rule(core5g::PdrRule{inactive + i, key,
                                         /*ue_id=*/100000 + i /
                                             params.flows_per_ue,
                                         int(inactive + i)});
  }

  // The xApp's steady state: all active flows prioritised.
  for (const std::uint64_t key : active_keys) table.prioritise_flow(key);
  out.prioritised_ues = table.prioritised_ue_count();

  const ZipfSampler zipf{params.active_flows, params.zipf_s};
  Rng rng{params.seed};
  for (std::uint32_t i = 0; i < params.lookups; ++i) {
    const std::uint64_t key = active_keys[zipf.sample(rng)];
    const auto outcome = table.lookup(key);
    SIXG_ASSERT(outcome.matched, "active flow must have a rule");
    out.lookup_ns.add(double(outcome.latency.ns()));

    // Occasionally the xApp re-tunes a QER (rate/priority adjustment).
    if (i % 512 == 0) {
      const std::uint32_t rule_id = inactive + zipf.sample(rng);
      const auto cost = table.update_rule(rule_id, int(rule_id));
      SIXG_ASSERT(cost.has_value(), "rule must exist");
      out.update_ns.add(double(cost->ns()));
    }
  }
  return out;
}

TextTable QosXApp::comparison(const Evaluation& linear,
                              const Evaluation& context) {
  TextTable t{{"Table mode", "Mean lookup (us)", "Max lookup (us)",
               "Mean update (us)", "Prioritised UEs"}};
  t.set_align(0, TextTable::Align::kLeft);
  const auto row = [&](const char* name, const Evaluation& e) {
    t.add_row({name, TextTable::num(e.lookup_ns.mean() / 1000.0, 2),
               TextTable::num(e.lookup_ns.max() / 1000.0, 2),
               TextTable::num(e.update_ns.mean() / 1000.0, 2),
               TextTable::integer(std::int64_t(e.prioritised_ues))});
  };
  row("linear scan (baseline)", linear);
  row("context-aware (xApp)", context);
  return t;
}

}  // namespace sixg::oran
