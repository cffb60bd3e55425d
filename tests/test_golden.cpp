// Golden digests: one FNV-1a digest of core::render() and one of
// core::render_json() per scenario of `sixg_run --run all` at seeds 1
// and 7, both from the same ScenarioResult, and one digest of
// obs::Runtime::metrics_json(false) for each of four scenarios run at
// seed 1 with metrics on and a 5 ms sampler. They are committed in
// tests/golden/run_all.txt, run_all_json.txt and metrics.txt and
// recomputed here in-process at 1 and 4 threads. This is the
// byte-identity oracle for refactors: a change that keeps every digest
// has kept every report and metrics byte. An intentional output change
// updates the golden file in the same diff — on a mismatch this test
// prints which scenarios moved and the complete replacement file.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "core/registry.hpp"
#include "core/scenarios.hpp"
#include "obs/obs.hpp"

namespace sixg::core {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 7};

/// One golden file under tests/golden/: the function whose output it
/// digests and the runs that output comes from.
struct Golden {
  const char* file;
  const char* function;
  const char* runs;
};
constexpr Golden kMetrics{
    "metrics.txt", "obs::Runtime::metrics_json(false)",
    "the scenarios of\n"
    "# `sixg_run --run <scenario> --metrics m.json --sample-every 5`"};

/// One pinned render of every scenario's result.
struct Render {
  Golden golden;
  std::string (*render)(const Scenario&, const ScenarioResult&);
};
constexpr const char* kRunAll = "every scenario of\n# `sixg_run --run all`";
constexpr Render kRenders[] = {
    {{"run_all.txt", "core::render()", kRunAll}, render},
    {{"run_all_json.txt", "core::render_json()", kRunAll}, render_json},
};
constexpr std::size_t kRenderCount = std::size(kRenders);

/// The scenarios whose metrics documents are pinned: the sharded city,
/// a faulted fleet, the paper's figure and a classed, degraded fleet.
constexpr const char* kMetricScenarios[] = {
    "city-serving-sharded", "fleet-resilience-ablation", "fig2",
    "degraded-fleet-slo"};
constexpr std::uint64_t kMetricSeed = 1;

/// Per render, "<seed> <scenario> <digest>" lines.
using Digests = std::array<std::vector<std::string>, kRenderCount>;

std::string header(const Golden& g) {
  return std::string("# FNV-1a 64-bit digest of ") + g.function + " for " +
         g.runs +
         ", one line per seed and scenario:\n"
         "#   <seed> <scenario> <digest>\n"
         "# tests/test_golden.cpp recomputes these at 1 and 4 threads. An\n"
         "# intentional report change replaces this file with the one that\n"
         "# test prints on mismatch, in the same diff.\n";
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string line(std::uint64_t seed, const std::string& scenario,
                 const std::string& bytes) {
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(fnv1a(bytes)));
  return std::to_string(seed) + " " + scenario + " " + digest;
}

/// Every render's lines for every scenario, seeds in order; each
/// scenario runs once per seed.
Digests compute(const ScenarioRegistry& registry, unsigned threads) {
  Digests digests;
  for (const std::uint64_t seed : kSeeds) {
    RunContext ctx;
    ctx.seed = seed;
    ctx.threads = threads;
    for (const Scenario* s : registry.list()) {
      const ScenarioResult result = s->run(ctx);
      for (std::size_t r = 0; r < kRenderCount; ++r)
        digests[r].push_back(
            line(seed, s->name, kRenders[r].render(*s, result)));
    }
  }
  return digests;
}

/// The metrics lines: each pinned scenario in its own metrics section,
/// as `sixg_run --run <scenario> --metrics` records it. The runtime is
/// process-wide, so this runs alone, and leaves the probes off.
std::vector<std::string> compute_metrics(const ScenarioRegistry& registry,
                                         unsigned threads) {
  auto& runtime = obs::Runtime::instance();
  RunContext ctx;
  ctx.seed = kMetricSeed;
  ctx.threads = threads;
  std::vector<std::string> lines;
  for (const char* name : kMetricScenarios) {
    const Scenario* s = registry.find(name);
    EXPECT_NE(s, nullptr) << name;
    if (s == nullptr) continue;
    runtime.configure(obs::Config{.metrics = true,
                                  .trace = false,
                                  .sample_every = Duration::millis(5)});
    runtime.begin_scenario(s->name);
    (void)s->run(ctx);
    runtime.end_scenario();
    lines.push_back(line(kMetricSeed, s->name, runtime.metrics_json(false)));
  }
  runtime.disable();
  return lines;
}

/// The committed lines, comments and blank lines skipped.
std::vector<std::string> read_golden(const Golden& g) {
  std::vector<std::string> lines;
  std::ifstream in{std::string(SIXG_SOURCE_DIR "/tests/golden/") + g.file};
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

/// "<seed> <scenario>" -> digest.
std::map<std::string, std::string> by_key(
    const std::vector<std::string>& lines) {
  std::map<std::string, std::string> out;
  for (const std::string& line : lines) {
    const std::size_t split = line.rfind(' ');
    out[line.substr(0, split)] = line.substr(split + 1);
  }
  return out;
}

std::string moved_scenarios(const std::vector<std::string>& golden,
                            const std::vector<std::string>& actual) {
  const auto want = by_key(golden);
  const auto got = by_key(actual);
  std::string out;
  for (const auto& [key, digest] : got) {
    const auto it = want.find(key);
    if (it == want.end()) {
      out += "  " + key + ": new, " + digest + "\n";
    } else if (it->second != digest) {
      out += "  " + key + ": " + it->second + " -> " + digest + "\n";
    }
  }
  for (const auto& [key, digest] : want) {
    if (got.count(key) == 0) out += "  " + key + ": gone, was " + digest + "\n";
  }
  return out.empty() ? "  (none; scenario order changed)\n" : out;
}

/// Fail, printing the moved scenarios and the replacement file, unless
/// `actual` equals the committed lines of `g`.
void expect_golden(const Golden& g, unsigned threads,
                   const std::vector<std::string>& actual) {
  const std::vector<std::string> golden = read_golden(g);
  if (actual == golden) return;
  std::string file = header(g);
  for (const std::string& line : actual) file += line + "\n";
  ADD_FAILURE() << "threads " << threads << ": " << g.function
                << " digests differ from tests/golden/" << g.file << "\n"
                << moved_scenarios(golden, actual)
                << "If the change is intended, replace that file with:\n"
                << file;
}

TEST(GoldenDigests, RunAllMatchesCommittedDigests) {
  ScenarioRegistry registry;
  register_paper_scenarios(registry);
  // Both thread counts run side by side: a scenario run is a pure function
  // of its RunContext, and the serial pass alone is most of the budget.
  auto serial = std::async(std::launch::async,
                           [&registry] { return compute(registry, 1); });
  const Digests parallel = compute(registry, 4);
  const std::pair<unsigned, Digests> runs[] = {{1u, serial.get()},
                                               {4u, parallel}};
  for (std::size_t r = 0; r < kRenderCount; ++r) {
    for (const auto& [threads, digests] : runs)
      expect_golden(kRenders[r].golden, threads, digests[r]);
  }
}

TEST(GoldenDigests, MetricsMatchCommittedDigests) {
  ScenarioRegistry registry;
  register_paper_scenarios(registry);
  for (const unsigned threads : {1u, 4u})
    expect_golden(kMetrics, threads, compute_metrics(registry, threads));
}

}  // namespace
}  // namespace sixg::core
