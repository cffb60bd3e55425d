/// @file registry.hpp — named-scenario registry: every paper artefact and
/// ablation is a self-describing entry runnable through one uniform API.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "netsim/parallel.hpp"

namespace sixg::core {

/// Execution parameters shared by every scenario run. A scenario must be a
/// pure function of this context: same seed + any thread count -> same
/// ScenarioResult (the determinism contract, see docs/ARCHITECTURE.md).
struct RunContext {
  /// Base seed. Scenario bodies never consume it directly; they derive
  /// per-purpose streams via seed_for() so adding a draw to one component
  /// cannot shift another component's stream.
  std::uint64_t seed = 1;

  /// Threads taking part in each parallel batch, the calling thread
  /// included (sweeps, grid campaigns, sharded windows); 0 = hardware
  /// concurrency. Thread count never changes results, only wall clock.
  unsigned threads = 0;

  /// Derive the seed for one named sub-purpose of the scenario.
  [[nodiscard]] std::uint64_t seed_for(std::uint64_t salt) const {
    return derive_seed(seed, salt);
  }

  /// A runner honouring the requested thread count.
  [[nodiscard]] netsim::ParallelRunner runner() const {
    return netsim::ParallelRunner{threads};
  }
};

/// Structured output of one scenario run: titled tables, paper-vs-measured
/// anchor lines and free-form notes, kept in emission order so the render
/// reads like the original bench narrative. The CLI renders this; tests
/// compare it for determinism.
class ScenarioResult {
 public:
  struct Note {
    std::string text;
  };
  struct TitledTable {
    std::string title;  ///< may be empty for the scenario's main table
    TextTable table;
  };
  struct Anchor {
    std::string what;   ///< which quantity was computed
    double measured;    ///< the value this run produced
    std::string paper;  ///< what the paper (or cited work) reports
  };
  using Item = std::variant<Note, TitledTable, Anchor>;

  void add_note(std::string line) { items_.emplace_back(Note{std::move(line)}); }
  void add_table(TextTable table, std::string title = {}) {
    items_.emplace_back(TitledTable{std::move(title), std::move(table)});
  }
  void add_anchor(std::string what, double measured, std::string paper) {
    items_.emplace_back(Anchor{std::move(what), measured, std::move(paper)});
  }

  [[nodiscard]] const std::vector<Item>& items() const { return items_; }

  /// Anchors in emission order (pointers into items()).
  [[nodiscard]] std::vector<const Anchor*> anchors() const;

 private:
  std::vector<Item> items_;
};

/// One runnable, self-describing scenario.
struct Scenario {
  std::string name;         ///< CLI handle, e.g. "fig2"
  std::string artefact;     ///< paper artefact, e.g. "Figure 2"
  std::string description;  ///< one line, shown by --list
  std::function<ScenarioResult(const RunContext&)> run;
};

/// Name -> Scenario map preserving registration order. Not thread-safe:
/// registration happens once at startup, lookups after.
class ScenarioRegistry {
 public:
  /// Register `scenario`. Returns false (and changes nothing) when the
  /// name is empty, the callable is missing, or the name already exists —
  /// duplicate registration is a programming error the caller can surface.
  bool add(Scenario scenario);

  /// Find by exact name; nullptr when absent.
  [[nodiscard]] const Scenario* find(std::string_view name) const;

  [[nodiscard]] bool contains(std::string_view name) const {
    return find(name) != nullptr;
  }

  /// All scenarios in registration order (stable across runs, so --list
  /// and --run all are deterministic).
  [[nodiscard]] std::vector<const Scenario*> list() const;

  /// Closest registered names to `name`, for "did you mean" hints on an
  /// unknown --run argument. Prefix matches rank first, then smallest
  /// Levenshtein distance (capped — wildly different names are not
  /// suggestions); ties keep registration order. At most `limit`
  /// entries, possibly none.
  [[nodiscard]] std::vector<const Scenario*> suggest(
      std::string_view name, std::size_t limit = 3) const;

  [[nodiscard]] std::size_t size() const { return scenarios_.size(); }

  /// The process-wide registry the CLI uses.
  static ScenarioRegistry& global();

 private:
  std::deque<Scenario> scenarios_;  // deque: add() never invalidates find()
};

/// Render a scenario result as report text: banner, notes, tables, then
/// the paper-vs-measured anchor lines.
[[nodiscard]] std::string render(const Scenario& scenario,
                                 const ScenarioResult& result);

/// Render a scenario result as a JSON object (machine-readable twin of
/// render()): {"name", "artefact", "description", "items": [...]} where
/// each item is {"kind": "note"|"table"|"anchor", ...} in emission order.
/// Tables carry their header and rows as string arrays; anchor `measured`
/// is a JSON number (null when not finite).
[[nodiscard]] std::string render_json(const Scenario& scenario,
                                      const ScenarioResult& result);

/// Render the registry as a JSON array of scenario descriptors, in
/// registration order: [{"name", "artefact", "description"}, ...].
/// Same string-escaping conventions as render_json; no "items" key —
/// this is the machine-readable twin of `sixg_run --list`.
[[nodiscard]] std::string render_list_json(const ScenarioRegistry& registry);

}  // namespace sixg::core
