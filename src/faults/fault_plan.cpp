#include "faults/fault_plan.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace sixg::faults {
namespace {

/// Stream discriminators for per-(kind,target) RNG derivation. Values
/// are part of the determinism contract: reordering them reshuffles
/// every existing fault schedule.
enum class Stream : std::uint64_t {
  kServerCrash = 1,
  kStraggler = 2,
  kLink = 3,
};

[[nodiscard]] Rng stream_rng(std::uint64_t seed, Stream stream,
                             std::uint32_t target) {
  return Rng{derive_seed(seed ^ kFaultSalt,
                         (std::uint64_t(stream) << 32) | target)};
}

[[nodiscard]] Duration sample_exp(Rng& rng, double mean_seconds) {
  // Inverse CDF on (0,1]: -mean * ln(1 - u) with u in [0,1) never takes
  // log(0). Clamped to >= 1ns so a window is never empty (a zero-length
  // window would make the begin/end pair a same-instant no-op).
  const double s = -mean_seconds * std::log1p(-rng.uniform());
  const Duration d = Duration::from_seconds_f(s);
  return d.is_zero() ? Duration::nanos(1) : d;
}

/// Walk one alternating up/down renewal process over [0, horizon) and
/// append its begin/end event pairs.
void walk_stream(std::vector<FaultEvent>& out, Rng rng, double rate_per_s,
                 Duration mean_window, Duration horizon, FaultKind begin,
                 FaultKind end, std::uint32_t target, double factor) {
  if (rate_per_s <= 0.0 || horizon.is_zero()) return;
  const double mean_up = 1.0 / rate_per_s;
  Duration t;
  for (;;) {
    t = t + sample_exp(rng, mean_up);
    if (t.ns() >= horizon.ns()) return;
    const Duration window = sample_exp(rng, mean_window.sec());
    out.push_back(FaultEvent{.at = t,
                             .duration = window,
                             .factor = factor,
                             .kind = begin,
                             .target = target});
    // The repair may complete beyond the horizon; schedule it anyway so
    // the target never stays failed forever.
    t = t + window;
    out.push_back(FaultEvent{
        .at = t, .duration = Duration{}, .factor = factor, .kind = end,
        .target = target});
  }
}

}  // namespace

FaultPlan FaultPlan::generate(const FaultConfig& config, std::uint64_t seed) {
  FaultPlan plan;
  for (const FaultEvent& ev : config.scripted) {
    SIXG_ASSERT(!ev.at.is_negative(), "scripted fault events start at t >= 0");
    plan.events.push_back(ev);
  }
  if (config.server_crash_rate_per_s > 0.0) {
    SIXG_ASSERT(config.server_mttr.ns() > 0, "server MTTR must be positive");
    for (std::uint32_t s = 0; s < config.servers; ++s) {
      walk_stream(plan.events, stream_rng(seed, Stream::kServerCrash, s),
                  config.server_crash_rate_per_s, config.server_mttr,
                  config.horizon, FaultKind::kServerCrash,
                  FaultKind::kServerRecover, s, 1.0);
    }
  }
  if (config.straggler_rate_per_s > 0.0) {
    SIXG_ASSERT(config.straggler_factor > 0.0,
                "straggler factor must be positive");
    for (std::uint32_t s = 0; s < config.servers; ++s) {
      walk_stream(plan.events, stream_rng(seed, Stream::kStraggler, s),
                  config.straggler_rate_per_s, config.straggler_mean,
                  config.horizon, FaultKind::kStraggleBegin,
                  FaultKind::kStraggleEnd, s, config.straggler_factor);
    }
  }
  if (config.link_fail_rate_per_s > 0.0) {
    SIXG_ASSERT(config.link_mttr.ns() > 0, "link MTTR must be positive");
    for (std::uint32_t l = 0; l < config.links; ++l) {
      walk_stream(plan.events, stream_rng(seed, Stream::kLink, l),
                  config.link_fail_rate_per_s, config.link_mttr,
                  config.horizon, FaultKind::kLinkFail,
                  FaultKind::kLinkRestore, l, 1.0);
    }
  }
  // Stable: same-instant events keep generation order (scripted first),
  // making the schedule a pure function of (config, seed).
  std::stable_sort(
      plan.events.begin(), plan.events.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  return plan;
}

}  // namespace sixg::faults
