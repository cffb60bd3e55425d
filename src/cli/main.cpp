// sixg_run — the single entry point of the reproduction. Enumerates the
// scenario registry (--list) and executes any subset of it (--run) with a
// caller-chosen seed and thread count, so every paper artefact and ablation
// is one uniform command away.

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/time.hpp"
#include "core/registry.hpp"
#include "core/scenarios.hpp"
#include "obs/obs.hpp"

namespace {

using sixg::core::RunContext;
using sixg::core::Scenario;
using sixg::core::ScenarioRegistry;

void print_usage(std::FILE* out) {
  std::fputs(
      "usage: sixg_run [options]\n"
      "\n"
      "options:\n"
      "  --list              list all registered scenarios and exit\n"
      "  --run <names|all>   run scenarios: a name, a comma-separated\n"
      "                      list of names, or 'all'; may be given\n"
      "                      multiple times\n"
      "  --format F          output format: text (default) or json\n"
      "  --threads N         worker threads for parallel scenarios\n"
      "                      (default 0 = hardware concurrency)\n"
      "  --seed S            base seed; scenarios derive their streams\n"
      "                      from it (default 1)\n"
      "  --metrics PATH      write a metrics JSON document (counters,\n"
      "                      gauges, histograms, sampled series) covering\n"
      "                      every scenario run\n"
      "  --trace PATH        write a Chrome-trace-event JSON file (load\n"
      "                      it at ui.perfetto.dev or chrome://tracing)\n"
      "  --sample-every MS   periodic sampler cadence in simulated\n"
      "                      milliseconds (requires --metrics; default\n"
      "                      0 = sampling off)\n"
      "  --log-level L       stderr log level: debug, info, warn, error\n"
      "                      or off (default warn)\n"
      "  --help              show this help\n"
      "\n"
      "examples:\n"
      "  sixg_run --list\n"
      "  sixg_run --run fig2\n"
      "  sixg_run --run table1,fig4 --seed 7\n"
      "  sixg_run --run all --threads 8\n"
      "  sixg_run --run edge-inference-latency --format json\n"
      "  sixg_run --run city-serving-sharded --metrics m.json --trace "
      "t.json\n",
      out);
}

void print_list(const ScenarioRegistry& registry, bool json) {
  if (json) {
    // One JSON array of {"name","artefact","description"} descriptors,
    // escaped with the same conventions as --run output.
    std::fputs(sixg::core::render_list_json(registry).c_str(), stdout);
    return;
  }
  sixg::TextTable t{{"Name", "Artefact", "Description"}};
  t.set_align(0, sixg::TextTable::Align::kLeft);
  t.set_align(1, sixg::TextTable::Align::kLeft);
  t.set_align(2, sixg::TextTable::Align::kLeft);
  for (const Scenario* s : registry.list()) {
    t.add_row({s->name, s->artefact, s->description});
  }
  std::printf("%s%zu scenarios registered\n", t.str().c_str(),
              registry.size());
}

/// Split a --run value on commas. Empty segments ("a,,b", a trailing
/// comma) are preserved so they fail name resolution loudly instead of
/// being silently dropped.
std::vector<std::string> split_names(const std::string& value) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = value.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(value.substr(start));
      return out;
    }
    out.push_back(value.substr(start, comma - start));
    start = comma + 1;
  }
}

bool parse_f64(const char* text, double* out) {
  // Same leading-digit discipline as parse_u64: no whitespace skipping,
  // no negative values wrapped through.
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

/// Write `body` to `path` whole; returns false (with the error on
/// stderr) if the file cannot be created or written.
bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "sixg_run: cannot open %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return false;
  }
  const bool ok =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) {
    std::fprintf(stderr, "sixg_run: short write to %s\n", path.c_str());
    return false;
  }
  return true;
}

bool parse_u64(const char* text, std::uint64_t* out) {
  // Require a leading digit: strtoull would skip whitespace and wrap a
  // negative value to a huge uint64, silently accepting e.g. " -3".
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  // Decimal unless explicitly hex: base 0 would silently read a
  // zero-padded "010" as octal 8.
  const bool hex = text[0] == '0' && (text[1] == 'x' || text[1] == 'X');
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, hex ? 16 : 10);
  if (end == text || *end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  auto& registry = ScenarioRegistry::global();
  sixg::core::register_paper_scenarios(registry);

  bool list = false;
  bool json = false;
  std::vector<std::string> to_run;
  std::string metrics_path;
  std::string trace_path;
  double sample_ms = 0.0;
  RunContext ctx;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "sixg_run: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return 0;
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--run") {
      for (auto& name : split_names(next())) to_run.push_back(std::move(name));
    } else if (arg == "--format") {
      const std::string value = next();
      if (value == "json") {
        json = true;
      } else if (value == "text") {
        json = false;
      } else {
        std::fprintf(stderr,
                     "sixg_run: unknown --format '%s' (text or json)\n",
                     value.c_str());
        return 2;
      }
    } else if (arg == "--threads") {
      std::uint64_t v = 0;
      constexpr std::uint64_t kMaxThreads = 4096;
      if (!parse_u64(next(), &v) || v > kMaxThreads) {
        std::fprintf(stderr,
                     "sixg_run: invalid --threads value (0-%llu)\n",
                     static_cast<unsigned long long>(kMaxThreads));
        return 2;
      }
      ctx.threads = static_cast<unsigned>(v);
    } else if (arg == "--seed") {
      if (!parse_u64(next(), &ctx.seed)) {
        std::fprintf(stderr, "sixg_run: invalid --seed value\n");
        return 2;
      }
    } else if (arg == "--metrics") {
      metrics_path = next();
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--sample-every") {
      if (!parse_f64(next(), &sample_ms) || sample_ms <= 0.0) {
        std::fprintf(stderr,
                     "sixg_run: invalid --sample-every value "
                     "(milliseconds > 0)\n");
        return 2;
      }
    } else if (arg == "--log-level") {
      const std::string value = next();
      sixg::LogLevel level;
      if (!sixg::Log::parse_level(value, &level)) {
        std::fprintf(stderr,
                     "sixg_run: unknown --log-level '%s' "
                     "(debug|info|warn|error|off)\n",
                     value.c_str());
        return 2;
      }
      sixg::Log::set_level(level);
    } else {
      std::fprintf(stderr, "sixg_run: unknown option '%s'\n\n", arg.c_str());
      print_usage(stderr);
      return 2;
    }
  }

  const bool obs_wanted = !metrics_path.empty() || !trace_path.empty();
  if (sample_ms > 0.0 && metrics_path.empty()) {
    std::fprintf(stderr, "sixg_run: --sample-every requires --metrics\n");
    return 2;
  }
  if (obs_wanted && !sixg::obs::kProbesCompiled) {
    std::fprintf(stderr,
                 "sixg_run: this binary was built with SIXG_OBS_PROBES=OFF; "
                 "--metrics/--trace need probes compiled in\n");
    return 2;
  }

  if (!list && to_run.empty()) {
    print_usage(stdout);
    return 0;
  }
  if (list && !to_run.empty() && json) {
    // Two JSON documents on one stream would be unparseable.
    std::fprintf(stderr,
                 "sixg_run: --list and --run cannot be combined with "
                 "--format json\n");
    return 2;
  }
  if (list) {
    print_list(registry, json);
    if (to_run.empty()) return 0;
  }

  // Resolve names first so a typo fails before hours of scenarios run.
  std::vector<const Scenario*> selected;
  for (const auto& name : to_run) {
    if (name == "all") {
      for (const Scenario* s : registry.list()) selected.push_back(s);
      continue;
    }
    const Scenario* s = registry.find(name);
    if (s == nullptr) {
      std::fprintf(stderr, "sixg_run: unknown scenario '%s' (see --list)\n",
                   name.c_str());
      const auto near = registry.suggest(name);
      if (!near.empty()) {
        std::fprintf(stderr, "  did you mean:");
        for (const Scenario* cand : near)
          std::fprintf(stderr, " %s", cand->name.c_str());
        std::fprintf(stderr, "?\n");
      }
      return 1;
    }
    selected.push_back(s);
  }

  auto& obs_rt = sixg::obs::Runtime::instance();
  if (obs_wanted) {
    obs_rt.configure(sixg::obs::Config{
        .metrics = !metrics_path.empty(),
        .trace = !trace_path.empty(),
        .sample_every = sixg::Duration::from_seconds_f(sample_ms / 1e3)});
  }
  const auto run_one = [&](const Scenario* s) {
    if (obs_wanted) obs_rt.begin_scenario(s->name);
    auto result = s->run(ctx);
    if (obs_wanted) obs_rt.end_scenario();
    return result;
  };

  if (json) {
    // One JSON array regardless of scenario count, so consumers parse
    // the same shape for --run fig2 and --run all.
    std::fputs("[", stdout);
    bool first = true;
    for (const Scenario* s : selected) {
      if (!first) std::fputs(",\n", stdout);
      first = false;
      const auto result = run_one(s);
      std::fputs(sixg::core::render_json(*s, result).c_str(), stdout);
    }
    std::fputs("]\n", stdout);
  } else {
    // Blank line between scenarios only, so a single scenario prints
    // exactly render()'s text.
    bool first = true;
    for (const Scenario* s : selected) {
      if (!first) std::fputs("\n", stdout);
      first = false;
      const auto result = run_one(s);
      std::fputs(sixg::core::render(*s, result).c_str(), stdout);
    }
  }

  if (!metrics_path.empty() &&
      !write_file(metrics_path, obs_rt.metrics_json())) {
    return 1;
  }
  if (!trace_path.empty() && !write_file(trace_path, obs_rt.trace_json())) {
    return 1;
  }
  return 0;
}
