// Golden report digests: one FNV-1a digest of core::render() per scenario
// of `sixg_run --run all` at seeds 1 and 7, committed in
// tests/golden/run_all.txt and recomputed here in-process at 1 and 4
// threads. This is the byte-identity oracle for refactors: a change that
// keeps every digest has kept every report byte. An intentional output
// change updates the golden file in the same diff — on a mismatch this
// test prints which scenarios moved and the complete replacement file.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.hpp"
#include "core/scenarios.hpp"

namespace sixg::core {
namespace {

constexpr const char* kGoldenPath = SIXG_SOURCE_DIR "/tests/golden/run_all.txt";
constexpr std::uint64_t kSeeds[] = {1, 7};

constexpr const char* kHeader =
    "# FNV-1a 64-bit digest of core::render() for every scenario of\n"
    "# `sixg_run --run all`, one line per seed and scenario:\n"
    "#   <seed> <scenario> <digest>\n"
    "# tests/test_golden.cpp recomputes these at 1 and 4 threads. An\n"
    "# intentional report change replaces this file with the one that\n"
    "# test prints on mismatch, in the same diff.\n";

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// "<seed> <scenario> <digest>" for every scenario, seeds in order.
std::vector<std::string> compute(const ScenarioRegistry& registry,
                                 unsigned threads) {
  std::vector<std::string> lines;
  for (const std::uint64_t seed : kSeeds) {
    RunContext ctx;
    ctx.seed = seed;
    ctx.threads = threads;
    for (const Scenario* s : registry.list()) {
      char digest[24];
      std::snprintf(digest, sizeof digest, "%016llx",
                    static_cast<unsigned long long>(
                        fnv1a(render(*s, s->run(ctx)))));
      lines.push_back(std::to_string(seed) + " " + s->name + " " + digest);
    }
  }
  return lines;
}

/// The committed lines, comments and blank lines skipped.
std::vector<std::string> read_golden() {
  std::vector<std::string> lines;
  std::ifstream in{kGoldenPath};
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

TEST(GoldenDigests, RunAllMatchesCommittedDigests) {
  ScenarioRegistry registry;
  register_paper_scenarios(registry);
  const std::vector<std::string> golden = read_golden();
  // Both thread counts run side by side: a scenario run is a pure function
  // of its RunContext, and the serial pass alone is most of the budget.
  auto serial = std::async(std::launch::async,
                           [&registry] { return compute(registry, 1); });
  const std::vector<std::string> parallel = compute(registry, 4);
  const std::pair<unsigned, std::vector<std::string>> runs[] = {
      {1u, serial.get()}, {4u, parallel}};
  for (const auto& [threads, actual] : runs) {
    if (actual == golden) continue;
    std::string file = kHeader;
    for (const std::string& line : actual) file += line + "\n";
    ADD_FAILURE() << "threads " << threads
                  << ": report digests differ from tests/golden/run_all.txt\n"
                  << moved_scenarios(golden, actual)
                  << "If the change is intended, replace that file with:\n"
                  << file;
  }
}

}  // namespace
}  // namespace sixg::core
