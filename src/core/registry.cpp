#include "core/registry.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "stats/json.hpp"

namespace sixg::core {

std::vector<const ScenarioResult::Anchor*> ScenarioResult::anchors() const {
  std::vector<const Anchor*> out;
  for (const auto& item : items_) {
    if (const auto* a = std::get_if<Anchor>(&item)) out.push_back(a);
  }
  return out;
}

std::size_t ScenarioResult::table_count() const {
  std::size_t n = 0;
  for (const auto& item : items_) {
    if (std::holds_alternative<TitledTable>(item)) ++n;
  }
  return n;
}

bool ScenarioRegistry::add(Scenario scenario) {
  if (scenario.name.empty() || !scenario.run) return false;
  if (contains(scenario.name)) return false;
  scenarios_.push_back(std::move(scenario));
  return true;
}

const Scenario* ScenarioRegistry::find(std::string_view name) const {
  for (const auto& s : scenarios_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<const Scenario*> ScenarioRegistry::list() const {
  std::vector<const Scenario*> out;
  out.reserve(scenarios_.size());
  for (const auto& s : scenarios_) out.push_back(&s);
  return out;
}

namespace {

/// Levenshtein distance, two-row rolling DP. Scenario names are short
/// (tens of characters), so the quadratic cost is irrelevant.
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> prev(b.size() + 1);
  std::vector<std::size_t> cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

}  // namespace

std::vector<const Scenario*> ScenarioRegistry::suggest(
    std::string_view name, std::size_t limit) const {
  struct Scored {
    const Scenario* scenario;
    std::size_t score;  ///< 0 = prefix match, else edit distance
    std::size_t order;
  };
  // Distance cap: a suggestion should look like a typo of the input,
  // not an unrelated name. Scale with length, floor of 2.
  const std::size_t cap = std::max<std::size_t>(2, name.size() / 2);
  std::vector<Scored> scored;
  std::size_t order = 0;
  for (const auto& s : scenarios_) {
    std::size_t score;
    if (!name.empty() &&
        std::string_view(s.name).substr(0, name.size()) == name) {
      score = 0;
    } else {
      score = edit_distance(name, s.name);
      if (score > cap) {
        ++order;
        continue;
      }
    }
    scored.push_back(Scored{&s, score, order++});
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& a, const Scored& b) {
                     return a.score != b.score ? a.score < b.score
                                               : a.order < b.order;
                   });
  if (scored.size() > limit) scored.resize(limit);
  std::vector<const Scenario*> out;
  out.reserve(scored.size());
  for (const Scored& s : scored) out.push_back(s.scenario);
  return out;
}

ScenarioRegistry& ScenarioRegistry::global() {
  static ScenarioRegistry registry;
  return registry;
}

namespace {

struct ItemRenderer {
  std::ostringstream& os;

  void operator()(const ScenarioResult::Note& n) const { os << n.text << "\n"; }
  void operator()(const ScenarioResult::TitledTable& t) const {
    os << "\n";
    if (!t.title.empty()) os << t.title << "\n";
    os << t.table.str();
  }
  void operator()(const ScenarioResult::Anchor& a) const {
    char line[256];
    std::snprintf(line, sizeof line,
                  "  anchor: %-42s measured %10.2f | paper %s", a.what.c_str(),
                  a.measured, a.paper.c_str());
    os << line << "\n";
  }
};

}  // namespace

std::string render(const Scenario& scenario, const ScenarioResult& result) {
  std::ostringstream os;
  const std::string rule(62, '=');
  os << rule << "\n"
     << scenario.artefact << " — " << scenario.description << "\n"
     << rule << "\n";
  // Blank line at each anchor-block boundary, matching the section
  // separation the original bench binaries printed. Tables prepend their
  // own blank line, so only note lines need one when following anchors.
  bool last_was_anchor = false;
  for (const auto& item : result.items()) {
    const bool is_anchor =
        std::holds_alternative<ScenarioResult::Anchor>(item);
    const bool is_note = std::holds_alternative<ScenarioResult::Note>(item);
    if ((is_anchor && !last_was_anchor) || (is_note && last_was_anchor))
      os << "\n";
    std::visit(ItemRenderer{os}, item);
    last_was_anchor = is_anchor;
  }
  return os.str();
}

namespace {

using stats::json::append_string;

/// Anchor values: JSON has no NaN/Inf, and the human-facing render_json
/// convention is null (not stats/json.hpp's quoted sentinels).
void append_anchor_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_string_array(std::string& out,
                         const std::vector<std::string>& items) {
  out += '[';
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    append_string(out, items[i]);
  }
  out += ']';
}

struct JsonItemRenderer {
  std::string& out;

  void operator()(const ScenarioResult::Note& n) const {
    out += "{\"kind\":\"note\",\"text\":";
    append_string(out, n.text);
    out += '}';
  }
  void operator()(const ScenarioResult::TitledTable& t) const {
    out += "{\"kind\":\"table\",\"title\":";
    append_string(out, t.title);
    out += ",\"header\":";
    append_string_array(out, t.table.header());
    out += ",\"rows\":[";
    for (std::size_t i = 0; i < t.table.row_count(); ++i) {
      if (i > 0) out += ',';
      append_string_array(out, t.table.row(i));
    }
    out += "]}";
  }
  void operator()(const ScenarioResult::Anchor& a) const {
    out += "{\"kind\":\"anchor\",\"what\":";
    append_string(out, a.what);
    out += ",\"measured\":";
    append_anchor_number(out, a.measured);
    out += ",\"paper\":";
    append_string(out, a.paper);
    out += '}';
  }
};

/// {"name","artefact","description" — the descriptor fields shared by
/// render_json and render_list_json; the caller closes the object.
void append_descriptor(std::string& out, const Scenario& s) {
  out += "{\"name\":";
  append_string(out, s.name);
  out += ",\"artefact\":";
  append_string(out, s.artefact);
  out += ",\"description\":";
  append_string(out, s.description);
}

}  // namespace

std::string render_json(const Scenario& scenario,
                        const ScenarioResult& result) {
  std::string out;
  append_descriptor(out, scenario);
  out += ",\"items\":[";
  bool first = true;
  for (const auto& item : result.items()) {
    if (!first) out += ',';
    first = false;
    std::visit(JsonItemRenderer{out}, item);
  }
  out += "]}";
  return out;
}

std::string render_list_json(const ScenarioRegistry& registry) {
  std::string out = "[";
  bool first = true;
  for (const Scenario* s : registry.list()) {
    if (!first) out += ",\n";
    first = false;
    append_descriptor(out, *s);
    out += '}';
  }
  out += "]\n";
  return out;
}

}  // namespace sixg::core
