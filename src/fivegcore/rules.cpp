#include "fivegcore/rules.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/assert.hpp"

namespace sixg::core5g {

RuleTable::RuleTable(Mode mode, std::uint32_t hot_capacity, CostModel costs)
    : mode_(mode), hot_capacity_(hot_capacity), costs_(costs) {
  SIXG_ASSERT(hot_capacity_ > 0, "hot cache needs capacity");
}

Duration RuleTable::add_rule(const PdrRule& rule) {
  const auto pos = std::lower_bound(
      rules_.begin(), rules_.end(), rule, [](const PdrRule& a, const PdrRule& b) {
        if (a.precedence != b.precedence) return a.precedence < b.precedence;
        return a.id < b.id;
      });
  rules_.insert(pos, rule);
  return costs_.update_base +
         costs_.per_rule_update * std::int64_t(rules_.size());
}

std::optional<Duration> RuleTable::remove_rule(std::uint32_t id) {
  const auto it = std::find_if(rules_.begin(), rules_.end(),
                               [id](const PdrRule& r) { return r.id == id; });
  if (it == rules_.end()) return std::nullopt;
  const std::uint64_t key = it->flow_key;
  rules_.erase(it);
  hot_.erase(std::remove(hot_.begin(), hot_.end(), key), hot_.end());
  return costs_.update_base +
         costs_.per_rule_update * std::int64_t(rules_.size());
}

std::optional<std::size_t> RuleTable::hot_position(
    std::uint64_t flow_key) const {
  const auto it = std::find(hot_.begin(), hot_.end(), flow_key);
  if (it == hot_.end()) return std::nullopt;
  return std::size_t(it - hot_.begin());
}

void RuleTable::touch_hot(std::uint64_t flow_key) {
  hot_.erase(std::remove(hot_.begin(), hot_.end(), flow_key), hot_.end());
  hot_.insert(hot_.begin(), flow_key);
  if (hot_.size() > hot_capacity_) hot_.resize(hot_capacity_);
}

LookupOutcome RuleTable::lookup(std::uint64_t flow_key) {
  LookupOutcome out;

  if (mode_ == Mode::kContextAware) {
    if (hot_position(flow_key).has_value()) {
      // Hot cache hit: flat cost regardless of table size or position.
      touch_hot(flow_key);
      out.matched = true;
      out.scanned = 1;
      out.latency = costs_.hot_hit;
      return out;
    }
  }

  for (std::size_t i = 0; i < rules_.size(); ++i) {
    ++out.scanned;
    if (rules_[i].flow_key == flow_key) {
      out.matched = true;
      break;
    }
  }
  out.latency =
      costs_.lookup_base + costs_.per_rule * std::int64_t(out.scanned);
  if (mode_ == Mode::kContextAware && out.matched) {
    // Promote on miss so active flows converge into the cache.
    touch_hot(flow_key);
    out.latency += costs_.hot_update;
  }
  return out;
}

std::optional<Duration> RuleTable::update_rule(std::uint32_t id,
                                               int new_precedence) {
  const auto it = std::find_if(rules_.begin(), rules_.end(),
                               [id](const PdrRule& r) { return r.id == id; });
  if (it == rules_.end()) return std::nullopt;

  // Re-insert so rules_ stays sorted by (precedence, id) in both modes.
  PdrRule moved = *it;
  moved.precedence = new_precedence;
  rules_.erase(it);
  const Duration reorg = add_rule(moved);
  // Prioritised flow: the QER change is charged as a hot-cache update.
  if (mode_ == Mode::kContextAware && hot_position(moved.flow_key))
    return costs_.hot_update;
  return reorg;
}

void RuleTable::prioritise_flow(std::uint64_t flow_key) {
  if (mode_ != Mode::kContextAware) return;
  touch_hot(flow_key);
}

std::size_t RuleTable::prioritised_ue_count() const {
  std::unordered_set<std::uint32_t> ues;
  for (std::uint64_t key : hot_) {
    for (const PdrRule& r : rules_) {
      if (r.flow_key == key) {
        ues.insert(r.ue_id);
        break;
      }
    }
  }
  return ues.size();
}

}  // namespace sixg::core5g
