#include "fivegcore/rules.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/assert.hpp"

namespace sixg::core5g {

RuleTable::RuleTable(Mode mode, std::uint32_t hot_capacity, CostModel costs)
    : mode_(mode), hot_capacity_(hot_capacity), costs_(costs) {
  SIXG_ASSERT(hot_capacity_ > 0, "hot cache needs capacity");
}

void RuleTable::reindex_from(std::size_t pos) {
  // Positions below `pos` did not move, so an entry below it is still the
  // key's first rule. Every other entry is re-derived: walking down, the
  // last write for a key is its first position at or above `pos`.
  for (std::size_t i = rules_.size(); i-- > pos;) {
    const auto [it, fresh] =
        first_rule_.try_emplace(rules_[i].flow_key, std::uint32_t(i));
    if (!fresh && it->second >= pos) it->second = std::uint32_t(i);
  }
}

Duration RuleTable::add_rule(const PdrRule& rule) {
  const auto pos = std::lower_bound(
      rules_.begin(), rules_.end(), rule, [](const PdrRule& a, const PdrRule& b) {
        if (a.precedence != b.precedence) return a.precedence < b.precedence;
        return a.id < b.id;
      });
  const auto slot = std::size_t(pos - rules_.begin());
  rules_.insert(pos, rule);
  reindex_from(slot);
  return costs_.update_base +
         costs_.per_rule_update * std::int64_t(rules_.size());
}

bool RuleTable::hot_to_front(std::uint64_t flow_key) {
  const auto it = std::find(hot_.begin(), hot_.end(), flow_key);
  if (it == hot_.end()) return false;
  std::rotate(hot_.begin(), it, it + 1);
  return true;
}

void RuleTable::promote(std::uint64_t flow_key) {
  hot_.insert(hot_.begin(), flow_key);
  if (hot_.size() > hot_capacity_) hot_.pop_back();
}

LookupOutcome RuleTable::lookup(std::uint64_t flow_key) {
  LookupOutcome out;

  if (mode_ == Mode::kContextAware && hot_to_front(flow_key)) {
    // Hot cache hit: flat cost regardless of table size or position.
    out.matched = true;
    out.scanned = 1;
    out.latency = costs_.hot_hit;
    return out;
  }

  // The modelled scan stops at the key's first rule; a miss scans them all.
  const auto first = first_rule_.find(flow_key);
  out.matched = first != first_rule_.end();
  out.scanned = out.matched ? first->second + 1 : std::uint32_t(rules_.size());
  out.latency =
      costs_.lookup_base + costs_.per_rule * std::int64_t(out.scanned);
  if (mode_ == Mode::kContextAware && out.matched) {
    // Promote on miss so active flows converge into the cache.
    promote(flow_key);
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
  const auto from = std::size_t(it - rules_.begin());
  rules_.erase(it);
  const Duration reorg = add_rule(moved);
  // add_rule re-derived the index from the new slot; when the rule moved
  // later, the rules from its old slot up to there moved too.
  reindex_from(from);
  // Prioritised flow: the QER change is charged as a hot-cache update.
  if (mode_ == Mode::kContextAware &&
      std::find(hot_.begin(), hot_.end(), moved.flow_key) != hot_.end())
    return costs_.hot_update;
  return reorg;
}

void RuleTable::prioritise_flow(std::uint64_t flow_key) {
  if (mode_ != Mode::kContextAware) return;
  if (!hot_to_front(flow_key)) promote(flow_key);
}

std::size_t RuleTable::prioritised_ue_count() const {
  std::unordered_set<std::uint32_t> ues;
  for (std::uint64_t key : hot_) {
    const auto first = first_rule_.find(key);
    if (first != first_rule_.end()) ues.insert(rules_[first->second].ue_id);
  }
  return ues.size();
}

}  // namespace sixg::core5g
