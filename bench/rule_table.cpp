// google-benchmark suite for the 5G-core PDR rule table: one lookup of
// the lowest-precedence flow, by linear scan and by the context-aware
// hot cache with that flow prioritised, at 64 and 1024 installed rules.
// These lookups are the host cost of the ablation-cpf and smartnic-upf
// scenarios' rule-table sections.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "fivegcore/rules.hpp"

namespace {

using namespace sixg;

void BM_RuleLookupLinear(benchmark::State& state) {
  core5g::RuleTable table{core5g::RuleTable::Mode::kLinearScan};
  const auto rules = std::uint32_t(state.range(0));
  for (std::uint32_t i = 0; i < rules; ++i)
    (void)table.add_rule(core5g::PdrRule{i, 1000 + i, i / 4, int(i)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(1000 + rules - 1));
  }
}
BENCHMARK(BM_RuleLookupLinear)->Arg(64)->Arg(1024);

void BM_RuleLookupContextAware(benchmark::State& state) {
  core5g::RuleTable table{core5g::RuleTable::Mode::kContextAware};
  const auto rules = std::uint32_t(state.range(0));
  for (std::uint32_t i = 0; i < rules; ++i)
    (void)table.add_rule(core5g::PdrRule{i, 1000 + i, i / 4, int(i)});
  table.prioritise_flow(1000 + rules - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(1000 + rules - 1));
  }
}
BENCHMARK(BM_RuleLookupContextAware)->Arg(64)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
