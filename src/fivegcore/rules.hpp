#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"

namespace sixg::core5g {

/// Simplified N4 rule: a Packet Detection Rule with its QoS Enforcement
/// Rule folded in (the paper's Section V-C discusses PDR/QER handling as
/// one lookup problem).
struct PdrRule {
  std::uint32_t id = 0;
  std::uint64_t flow_key = 0;   ///< match key (UE flow 5-tuple hash)
  std::uint32_t ue_id = 0;      ///< owning UE (multiple flows per UE)
  int precedence = 0;           ///< lower value = earlier match
};

/// Outcome of one datapath lookup.
struct LookupOutcome {
  bool matched = false;
  std::uint32_t scanned = 0;  ///< rules inspected before the match
  Duration latency;           ///< modelled lookup time
};

/// UPF rule table with two organisations:
///
///  * kLinearScan — the 3GPP-conformant baseline: rules evaluated in
///    precedence order; lookup cost grows with the match position. That
///    growth is in the cost model only: the host finds the position
///    through a flow-key index, in time independent of the table size.
///  * kContextAware — the context-aware QoS model of Jain et al. [32]:
///    recently active ("prioritised") flows are kept in a small hot cache
///    consulted first, so lookup and update latencies stay flat for
///    latency-sensitive flows, and several flows per UE can be
///    prioritised simultaneously.
class RuleTable {
 public:
  enum class Mode : std::uint8_t { kLinearScan, kContextAware };

  struct CostModel {
    Duration lookup_base = Duration::nanos(550);
    Duration per_rule = Duration::nanos(28);     ///< per scanned rule
    Duration hot_hit = Duration::nanos(700);     ///< context-aware cache hit
    Duration update_base = Duration::nanos(1800);
    Duration per_rule_update = Duration::nanos(9);
    Duration hot_update = Duration::nanos(900);
  };

  explicit RuleTable(Mode mode, std::uint32_t hot_capacity, CostModel costs);
  explicit RuleTable(Mode mode, std::uint32_t hot_capacity = 64)
      : RuleTable(mode, hot_capacity, CostModel{}) {}

  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] std::size_t size() const { return rules_.size(); }
  [[nodiscard]] std::uint32_t hot_capacity() const { return hot_capacity_; }

  /// Install a rule (precedence-ordered insertion). Returns install cost.
  Duration add_rule(const PdrRule& rule);

  /// Look up the rule for `flow_key`; context-aware mode promotes a
  /// matched flow into the hot cache.
  [[nodiscard]] LookupOutcome lookup(std::uint64_t flow_key);

  /// Modify the QER of an existing rule (e.g. re-prioritise a flow).
  /// Costs a table reorganisation, except for a prioritised flow in
  /// context-aware mode, whose hot-cache entry update is O(1).
  [[nodiscard]] std::optional<Duration> update_rule(std::uint32_t id,
                                                    int new_precedence);

  /// Mark a flow latency-critical: context-aware mode pins it into the hot
  /// cache. Several flows of the same UE may be prioritised at once.
  void prioritise_flow(std::uint64_t flow_key);

  /// Number of distinct UEs with at least one rule in the hot cache.
  [[nodiscard]] std::size_t prioritised_ue_count() const;

 private:
  /// Re-derive first_rule_ after the rules from `pos` on moved.
  void reindex_from(std::size_t pos);
  /// Move a cached flow to the MRU front; false if it is not cached.
  bool hot_to_front(std::uint64_t flow_key);
  /// Cache an uncached flow at the MRU front, evicting the LRU one.
  void promote(std::uint64_t flow_key);

  Mode mode_;
  std::uint32_t hot_capacity_;
  CostModel costs_;
  std::vector<PdrRule> rules_;          ///< sorted by (precedence, id)
  /// flow_key -> position in rules_ of that key's first rule.
  std::unordered_map<std::uint64_t, std::uint32_t> first_rule_;
  std::vector<std::uint64_t> hot_;      ///< MRU-ordered flow keys
};

}  // namespace sixg::core5g
