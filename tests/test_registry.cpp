#include <gtest/gtest.h>

#include <string>

#include "core/registry.hpp"
#include "core/scenarios.hpp"
#include "json_parser.hpp"

namespace sixg::core {
namespace {

// Shared with test_obs.cpp: the minimal strict JSON parser lives in
// tests/json_parser.hpp.
using testutil::JsonParser;
using testutil::JsonValue;

Scenario make_scenario(std::string name) {
  Scenario s;
  s.name = std::move(name);
  s.artefact = "Test";
  s.description = "test scenario";
  s.run = [](const RunContext&) { return ScenarioResult{}; };
  return s;
}

// ------------------------------------------------------- registration

TEST(ScenarioRegistry, AddAndFind) {
  ScenarioRegistry registry;
  EXPECT_TRUE(registry.add(make_scenario("alpha")));
  EXPECT_TRUE(registry.add(make_scenario("beta")));
  EXPECT_EQ(registry.size(), 2u);

  const Scenario* s = registry.find("alpha");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->name, "alpha");
  EXPECT_TRUE(registry.contains("beta"));
  EXPECT_EQ(registry.find("gamma"), nullptr);
  EXPECT_FALSE(registry.contains("gamma"));
}

TEST(ScenarioRegistry, ListPreservesRegistrationOrder) {
  ScenarioRegistry registry;
  for (const char* name : {"c", "a", "b"})
    ASSERT_TRUE(registry.add(make_scenario(name)));
  const auto list = registry.list();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0]->name, "c");
  EXPECT_EQ(list[1]->name, "a");
  EXPECT_EQ(list[2]->name, "b");
}

TEST(ScenarioRegistry, RejectsDuplicateNames) {
  ScenarioRegistry registry;
  Scenario first = make_scenario("dup");
  first.description = "the original";
  ASSERT_TRUE(registry.add(first));

  Scenario second = make_scenario("dup");
  second.description = "the impostor";
  EXPECT_FALSE(registry.add(second));
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.find("dup")->description, "the original");
}

TEST(ScenarioRegistry, RejectsUnnamedOrBodylessScenarios) {
  ScenarioRegistry registry;
  EXPECT_FALSE(registry.add(make_scenario("")));
  Scenario no_body = make_scenario("empty");
  no_body.run = nullptr;
  EXPECT_FALSE(registry.add(no_body));
  EXPECT_EQ(registry.size(), 0u);
}

TEST(ScenarioRegistry, FindSurvivesLaterAdds) {
  ScenarioRegistry registry;
  ASSERT_TRUE(registry.add(make_scenario("stable")));
  const Scenario* s = registry.find("stable");
  for (int i = 0; i < 100; ++i)
    ASSERT_TRUE(registry.add(make_scenario("filler" + std::to_string(i))));
  EXPECT_EQ(s, registry.find("stable"));  // no reallocation moved it
}

// ------------------------------------------------- built-in scenarios

// --------------------------------------------------------- suggestions

TEST(ScenarioRegistry, SuggestRanksPrefixBeforeEditDistance) {
  ScenarioRegistry registry;
  for (const char* name :
       {"fleet-dispatch", "fleet-resilience", "fig2", "city-serving"})
    ASSERT_TRUE(registry.add(make_scenario(name)));
  const auto near = registry.suggest("fleet");
  ASSERT_EQ(near.size(), 2u);  // both prefix matches, registration order
  EXPECT_EQ(near[0]->name, "fleet-dispatch");
  EXPECT_EQ(near[1]->name, "fleet-resilience");
}

TEST(ScenarioRegistry, SuggestFindsTyposByEditDistance) {
  ScenarioRegistry registry;
  for (const char* name : {"fig1", "fig2", "city-serving", "gap-analysis"})
    ASSERT_TRUE(registry.add(make_scenario(name)));
  const auto near = registry.suggest("city-servng");  // dropped letter
  ASSERT_FALSE(near.empty());
  EXPECT_EQ(near[0]->name, "city-serving");
}

TEST(ScenarioRegistry, SuggestDropsUnrelatedNamesAndHonoursLimit) {
  ScenarioRegistry registry;
  for (const char* name : {"alpha", "beta", "gamma", "delta"})
    ASSERT_TRUE(registry.add(make_scenario(name)));
  // Nothing within the distance cap of a wildly different name.
  EXPECT_TRUE(registry.suggest("fleet-resilience-ablation").empty());
  // Single-character typo of every name would rank them all; limit caps.
  for (const char* name : {"beta1", "beta2", "beta3", "beta4"})
    ASSERT_TRUE(registry.add(make_scenario(name)));
  EXPECT_EQ(registry.suggest("beta0", 3).size(), 3u);
}

TEST(PaperScenarios, RegistersEveryPaperArtefact) {
  ScenarioRegistry registry;
  const std::size_t added = register_paper_scenarios(registry);
  EXPECT_GE(added, 15u);
  for (const char* name : {"fig1", "fig2", "fig3", "fig4", "table1",
                           "fig2-6g", "ablation-peering", "ablation-upf",
                           "ablation-cpf"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
  // Every entry is self-describing.
  for (const Scenario* s : registry.list()) {
    EXPECT_FALSE(s->artefact.empty()) << s->name;
    EXPECT_FALSE(s->description.empty()) << s->name;
    EXPECT_TRUE(static_cast<bool>(s->run)) << s->name;
  }
}

TEST(PaperScenarios, RegistrationIsIdempotent) {
  ScenarioRegistry registry;
  const std::size_t first = register_paper_scenarios(registry);
  const std::size_t second = register_paper_scenarios(registry);
  EXPECT_GE(first, 15u);
  EXPECT_EQ(second, 0u);
  EXPECT_EQ(registry.size(), first);
}

// ------------------------------------------------------- determinism

TEST(PaperScenarios, RunIsDeterministicForFixedSeed) {
  ScenarioRegistry registry;
  register_paper_scenarios(registry);
  const Scenario* s = registry.find("table1");
  ASSERT_NE(s, nullptr);

  RunContext ctx;
  ctx.seed = 42;
  const std::string once = render(*s, s->run(ctx));
  const std::string twice = render(*s, s->run(ctx));
  EXPECT_EQ(once, twice);
  EXPECT_NE(once.find("anchor:"), std::string::npos);

  RunContext other = ctx;
  other.seed = 43;
  EXPECT_NE(render(*s, s->run(other)), once);
}

TEST(PaperScenarios, ThreadCountDoesNotChangeResults) {
  ScenarioRegistry registry;
  register_paper_scenarios(registry);
  const Scenario* s = registry.find("fig2");
  ASSERT_NE(s, nullptr);

  RunContext serial;
  serial.seed = 7;
  serial.threads = 1;
  RunContext wide = serial;
  wide.threads = 4;
  EXPECT_EQ(render(*s, s->run(serial)), render(*s, s->run(wide)));
}

// ------------------------------------------------------- result shape

TEST(ScenarioResult, KeepsEmissionOrderAndFilteredViews) {
  ScenarioResult result;
  result.add_note("before");
  result.add_table(TextTable{{"h"}}, "titled");
  result.add_anchor("metric", 1.5, "paper value");
  result.add_note("after");
  result.add_anchor("second", 2.5, "other");

  EXPECT_EQ(result.items().size(), 5u);
  const auto anchors = result.anchors();
  ASSERT_EQ(anchors.size(), 2u);
  EXPECT_EQ(anchors[0]->what, "metric");
  EXPECT_DOUBLE_EQ(anchors[0]->measured, 1.5);
  EXPECT_EQ(anchors[1]->what, "second");
}

TEST(ScenarioRenderJson, RoundTripsThroughAParser) {
  Scenario s = make_scenario("json-me");
  s.artefact = "Figure J";
  s.description = "json \"round\" trip\nwith control chars\t";
  ScenarioResult result;
  result.add_note("a note with a \\ backslash");
  TextTable t{{"col A", "col B"}};
  t.add_row({"cell 1", "cell 2"});
  result.add_table(std::move(t), "A Title:");
  result.add_anchor("quantity", 3.25, "about 3");
  result.add_anchor("exact", 65.0, "65 ms");

  const std::string json = render_json(s, result);
  const JsonValue root = JsonParser{json}.parse();  // throws on bad JSON

  const auto& obj = root.object();
  EXPECT_EQ(obj.at("name").str(), "json-me");
  EXPECT_EQ(obj.at("artefact").str(), "Figure J");
  // Escapes survive the round trip exactly.
  EXPECT_EQ(obj.at("description").str(), s.description);

  const auto& items = obj.at("items").array();
  ASSERT_EQ(items.size(), 4u);
  EXPECT_EQ(items[0].object().at("kind").str(), "note");
  EXPECT_EQ(items[0].object().at("text").str(), "a note with a \\ backslash");

  const auto& table = items[1].object();
  EXPECT_EQ(table.at("kind").str(), "table");
  EXPECT_EQ(table.at("title").str(), "A Title:");
  ASSERT_EQ(table.at("header").array().size(), 2u);
  EXPECT_EQ(table.at("header").array()[0].str(), "col A");
  ASSERT_EQ(table.at("rows").array().size(), 1u);
  EXPECT_EQ(table.at("rows").array()[0].array()[1].str(), "cell 2");

  const auto& anchor = items[2].object();
  EXPECT_EQ(anchor.at("kind").str(), "anchor");
  EXPECT_EQ(anchor.at("what").str(), "quantity");
  EXPECT_DOUBLE_EQ(anchor.at("measured").number(), 3.25);
  EXPECT_EQ(anchor.at("paper").str(), "about 3");
  EXPECT_DOUBLE_EQ(items[3].object().at("measured").number(), 65.0);
}

TEST(ScenarioRenderJson, ControlCharactersRoundTripThroughNotes) {
  // Notes with embedded newlines, tabs and sub-0x20 control bytes must
  // escape to valid JSON and parse back to the exact original bytes.
  Scenario s = make_scenario("control-chars");
  ScenarioResult result;
  const std::string gnarly =
      "line one\nline two\twith tab\rcarriage\x01\x1f bell:\x07 done";
  result.add_note(gnarly);
  result.add_note("plain trailing newline\n");
  TextTable t{{"col\nwith newline"}};
  t.add_row({"cell\twith tab"});
  result.add_table(std::move(t), "title\nsplit");

  const std::string json = render_json(s, result);
  // Raw control bytes must never appear unescaped in the JSON text.
  for (const char c : json) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }

  const JsonValue root = JsonParser{json}.parse();
  const auto& items = root.object().at("items").array();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].object().at("text").str(), gnarly);
  EXPECT_EQ(items[1].object().at("text").str(), "plain trailing newline\n");
  const auto& table = items[2].object();
  EXPECT_EQ(table.at("title").str(), "title\nsplit");
  EXPECT_EQ(table.at("header").array()[0].str(), "col\nwith newline");
  EXPECT_EQ(table.at("rows").array()[0].array()[0].str(), "cell\twith tab");
}

TEST(RenderListJson, MachineReadableListingParsesAndMatchesRegistry) {
  ScenarioRegistry registry;
  register_paper_scenarios(registry);
  const std::string json = render_list_json(registry);

  const JsonValue root = JsonParser{json}.parse();
  const auto& entries = root.array();
  const auto scenarios = registry.list();
  ASSERT_EQ(entries.size(), scenarios.size());
  ASSERT_GE(entries.size(), 20u);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& obj = entries[i].object();
    EXPECT_EQ(obj.at("name").str(), scenarios[i]->name);
    EXPECT_EQ(obj.at("artefact").str(), scenarios[i]->artefact);
    EXPECT_EQ(obj.at("description").str(), scenarios[i]->description);
    // Descriptors only — no items payload in a listing.
    EXPECT_EQ(obj.count("items"), 0u);
  }
}

TEST(RenderListJson, EscapesDescriptorFields) {
  ScenarioRegistry registry;
  Scenario s = make_scenario("quoted");
  s.description = "says \"hi\"\nand more\t.";
  ASSERT_TRUE(registry.add(s));
  const JsonValue root = JsonParser{render_list_json(registry)}.parse();
  EXPECT_EQ(root.array()[0].object().at("description").str(),
            s.description);
}

TEST(ScenarioRenderJson, BuiltInScenarioOutputParses) {
  ScenarioRegistry registry;
  register_paper_scenarios(registry);
  const Scenario* s = registry.find("fig4");
  ASSERT_NE(s, nullptr);
  RunContext ctx;
  ctx.seed = 3;
  const std::string json = render_json(*s, s->run(ctx));
  const JsonValue root = JsonParser{json}.parse();
  EXPECT_EQ(root.object().at("name").str(), "fig4");
  EXPECT_FALSE(root.object().at("items").array().empty());
}

TEST(ScenarioRender, ContainsBannerNotesTablesAndAnchors) {
  Scenario s = make_scenario("render-me");
  s.artefact = "Figure X";
  s.description = "render test";
  ScenarioResult result;
  result.add_note("a note line");
  TextTable t{{"col"}};
  t.add_row({"cell"});
  result.add_table(std::move(t), "A Title:");
  result.add_anchor("quantity", 3.25, "about 3");

  const std::string out = render(s, result);
  EXPECT_NE(out.find("Figure X — render test"), std::string::npos);
  EXPECT_NE(out.find("a note line"), std::string::npos);
  EXPECT_NE(out.find("A Title:"), std::string::npos);
  EXPECT_NE(out.find("cell"), std::string::npos);
  EXPECT_NE(out.find("anchor: quantity"), std::string::npos);
  EXPECT_NE(out.find("3.25"), std::string::npos);
  EXPECT_NE(out.find("about 3"), std::string::npos);
}

}  // namespace
}  // namespace sixg::core
