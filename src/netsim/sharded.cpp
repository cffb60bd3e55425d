#include "netsim/sharded.hpp"

#include <utility>

#include "common/assert.hpp"
#include "obs/obs.hpp"

namespace sixg::netsim {

ShardedSimulator::ShardedSimulator(const Config& config)
    : config_(config), runner_(config.workers) {
  SIXG_ASSERT(config.shards >= 1, "a sharded run needs at least one shard");
  SIXG_ASSERT(config.window > Duration{},
              "the conservative window must be positive");
  shards_.reserve(config.shards);
  for (std::uint32_t k = 0; k < config.shards; ++k) {
    shards_.push_back(
        std::make_unique<Shard>(shard_seed(config.seed, k), config.shards));
  }
}

/// Hand the window participants' wall-clock busy/stall rows to the obs
/// runtime. Stall is the window wall time a participant spent NOT
/// executing shards: barrier waiting plus claim overhead. Explicitly
/// non-deterministic; the runtime exports it outside the
/// determinism-checked sections.
ShardedSimulator::~ShardedSimulator() {
  const std::uint64_t wall = window_profile_.wall_ns;
  if (wall == 0) return;
  auto& runtime = obs::Runtime::instance();
  const std::uint32_t pool = runtime.next_pool_id();
  std::vector<obs::WorkerProfile> rows;
  rows.reserve(window_profile_.slots.size());
  for (std::uint32_t w = 0; w < window_profile_.slots.size(); ++w) {
    const auto& slot = window_profile_.slots[w];
    rows.push_back({pool, w, slot.busy_ns,
                    wall > slot.busy_ns ? wall - slot.busy_ns : 0,
                    slot.batches});
  }
  runtime.publish_workers(std::move(rows));
}

void ShardedSimulator::post(std::uint32_t src, std::uint32_t dst, TimePoint at,
                            Simulator::Action action) {
  SIXG_ASSERT(src < shards_.size() && dst < shards_.size(),
              "post() shard index out of range");
  SIXG_ASSERT(src != dst,
              "same-shard post: schedule on shard(src) directly instead");
  // The conservative causality bound: a message emitted during the
  // window ending at horizon_ is only delivered at that barrier, so it
  // must not be due before it. Window sizing (<= the minimum cross-shard
  // latency) makes every physically modelled message satisfy this.
  SIXG_ASSERT(!running_ || at >= horizon_,
              "cross-shard message due before its conservative window end — "
              "the window exceeds the minimum cross-shard latency");
  SIXG_ASSERT(running_ || at >= now_,
              "cross-shard message due before the barrier clock");
  shards_[src]->outbox[dst].push_back(Message{at, std::move(action)});
}

bool ShardedSimulator::has_work() const {
  for (const auto& shard : shards_) {
    if (shard->sim.pending_events() > 0) return true;
    for (const auto& box : shard->outbox) {
      if (!box.empty()) return true;
    }
  }
  return false;
}

void ShardedSimulator::drain_mailboxes() {
  // Fixed (dst, src, append-order) total order: the destination kernel
  // assigns the same event sequence numbers regardless of which worker
  // ran which shard. This order IS the determinism contract — do not
  // reorder for convenience.
  for (std::uint32_t dst = 0; dst < shards_.size(); ++dst) {
    Simulator& sink = shards_[dst]->sim;
    for (std::uint32_t src = 0; src < shards_.size(); ++src) {
      if (src == dst) continue;
      auto& box = shards_[src]->outbox[dst];
      for (Message& m : box) {
        SIXG_ASSERT(m.at >= now_,
                    "drained message due before the barrier clock");
        sink.schedule_at(m.at, std::move(m.action));
        ++messages_;
      }
      box.clear();
    }
  }
}

void ShardedSimulator::step_window(TimePoint horizon) {
  // Latch the per-window binding decision on the coordinator; the
  // runner's batch hand-off publishes it to the helpers.
  bind_scopes_ = obs::probes_enabled();
  if (bind_scopes_ && scopes_.empty()) {
    scopes_.resize(shards_.size());
    auto& rt = obs::Runtime::instance();
    for (std::uint32_t k = 0; k < shards_.size(); ++k) {
      scopes_[k] = rt.shard_scope(k);
    }
  }
  const std::uint64_t delivered0 = messages_;
  drain_mailboxes();
  const std::uint64_t delivered = messages_ - delivered0;
  SIXG_OBS_COUNT(obs::Metric::kShardMessages, delivered);
  SIXG_OBS_HIST(obs::Metric::kHistDrainMessages, delivered);
  SIXG_OBS_COUNT(obs::Metric::kShardWindows, 1);
  SIXG_OBS_INSTANT(obs::TraceName::kDrain, now_.ns(), delivered);
  SIXG_OBS_SPAN(obs::TraceName::kWindow, now_.ns(), (horizon - now_).ns(),
                windows_);
  horizon_ = horizon;
  running_ = true;
  // One batch per window, complete when every shard has reached the
  // horizon. Shard k's probes always land in shard k's scope, whichever
  // thread claimed it, so the merged metrics (and the per-shard trace
  // streams) stay byte-identical at any worker count.
  runner_.run(
      shards_.size(),
      [this](std::size_t k) {
        const obs::ScopeBind bind(bind_scopes_ ? scopes_[k] : nullptr);
        shards_[k]->sim.run_until(horizon_);
      },
      window_profile_);
  running_ = false;
  now_ = horizon;
  ++windows_;
}

void ShardedSimulator::run() {
  SIXG_OBS_GAUGE(obs::Metric::kShardLookaheadNs, double(config_.window.ns()));
  SIXG_OBS_GAUGE(obs::Metric::kShardShards, double(shards_.size()));
  while (has_work()) step_window(now_ + config_.window);
}

}  // namespace sixg::netsim
