// google-benchmark suite for the 5G-core PDR rule table. BM_RuleLookup*
// time one lookup of the lowest-precedence flow, by linear scan and by the
// context-aware hot cache with that flow prioritised: at 64 and 1024
// installed rules, two of the table sizes smartnic-upf sweeps, and at
// QosXApp::kTotalRules, ablation-cpf's table. The linear rows must read
// alike at every size: the scan's cost is modelled, and the host finds the
// match position through the table's flow-key index. BM_QosXAppEvaluate
// runs ablation-cpf's rule-table workload, one QosXApp::evaluate per
// iteration, in either mode.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "fivegcore/rules.hpp"
#include "oran/qos_xapp.hpp"

namespace {

using namespace sixg;

void fill_table(core5g::RuleTable& table, std::uint32_t rules) {
  for (std::uint32_t i = 0; i < rules; ++i)
    (void)table.add_rule(core5g::PdrRule{i, 1000 + i, i / 4, int(i)});
}

void BM_RuleLookupLinear(benchmark::State& state) {
  core5g::RuleTable table{core5g::RuleTable::Mode::kLinearScan};
  const auto rules = std::uint32_t(state.range(0));
  fill_table(table, rules);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(1000 + rules - 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RuleLookupLinear)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(oran::QosXApp::kTotalRules);

void BM_RuleLookupContextAware(benchmark::State& state) {
  core5g::RuleTable table{core5g::RuleTable::Mode::kContextAware};
  const auto rules = std::uint32_t(state.range(0));
  fill_table(table, rules);
  table.prioritise_flow(1000 + rules - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(1000 + rules - 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RuleLookupContextAware)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(oran::QosXApp::kTotalRules);

void BM_QosXAppEvaluate(benchmark::State& state, core5g::RuleTable::Mode mode) {
  const oran::QosXApp::WorkloadParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oran::QosXApp::evaluate(mode, params));
  }
  state.SetItemsProcessed(state.iterations() *
                          oran::QosXApp::WorkloadParams::lookups);
}
BENCHMARK_CAPTURE(BM_QosXAppEvaluate, linear,
                  core5g::RuleTable::Mode::kLinearScan)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_QosXAppEvaluate, context,
                  core5g::RuleTable::Mode::kContextAware)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
