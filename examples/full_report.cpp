// Regenerates the paper's analysis as one markdown document: requirements
// matrix, drive-test grids, gap analysis, Table I trace and the Section V
// ablations. Each section is a registered scenario rendered at the default
// seed, so its numbers match `sixg_run --run <name>` exactly.
//
// Usage: full_report [output.md]   (stdout when no file is given)

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "core/registry.hpp"
#include "core/scenarios.hpp"

int main(int argc, char** argv) {
  using namespace sixg;
  core::ScenarioRegistry registry;
  core::register_paper_scenarios(registry);

  std::string markdown =
      "# 6G Infrastructures for Edge AI — regenerated study\n";
  for (const char* name :
       {"requirements", "fig2", "fig3", "gap-analysis", "table1",
        "ablation-peering", "ablation-upf", "ablation-cpf"}) {
    const core::Scenario& scenario = *registry.find(name);
    markdown += "\n## " + scenario.artefact + " (`sixg_run --run " +
                scenario.name + "`)\n\n```\n" +
                core::render(scenario, scenario.run(core::RunContext{})) +
                "```\n";
  }

  if (argc > 1) {
    std::ofstream file{argv[1]};
    if (!file) {
      std::fprintf(stderr, "full_report: cannot open %s\n", argv[1]);
      return 1;
    }
    file << markdown;
    std::printf("wrote %zu bytes to %s\n", markdown.size(), argv[1]);
  } else {
    std::cout << markdown;
  }
  return 0;
}
