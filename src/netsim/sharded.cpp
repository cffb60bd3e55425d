#include "netsim/sharded.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

#include "common/assert.hpp"
#include "obs/obs.hpp"

namespace sixg::netsim {

namespace {
[[nodiscard]] std::uint64_t steady_ns() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}
}  // namespace

/// Persistent worker pool: one barrier generation per window. Workers
/// sleep on a condition variable between windows; per window the
/// coordinator bumps the epoch, every participant (workers plus the
/// coordinating thread) claims shards off an atomic cursor, and the
/// coordinator waits until all participants have checked back in. The
/// mutex hand-offs give the mailbox reads after the barrier a
/// happens-before edge over every shard executed in the window.
struct ShardedSimulator::Pool {
  explicit Pool(ShardedSimulator& owner, unsigned workers)
      : sharded(owner), stats(workers) {
    if (obs::kProbesCompiled && obs::metrics_on()) {
      pool_id = obs::Runtime::instance().next_pool_id();
    }
    threads.reserve(workers - 1);
    for (unsigned t = 0; t + 1 < workers; ++t) {
      threads.emplace_back([this, self = t + 1] { worker_loop(self); });
    }
  }

  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock(mu);
      shutdown = true;
    }
    cv_work.notify_all();
    for (auto& t : threads) t.join();
    publish_profile();
  }

  void worker_loop(unsigned self) {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv_work.wait(lock, [&] { return shutdown || epoch != seen; });
        if (shutdown) return;
        seen = epoch;
      }
      // profile_ and bind_scopes_ are written by the coordinator before
      // the epoch bump; the mutex hand-off above makes them visible.
      if (sharded.profile_) {
        const std::uint64_t t0 = steady_ns();
        sharded.run_claimed();
        stats[self].busy_ns += steady_ns() - t0;
        ++stats[self].windows;
      } else {
        sharded.run_claimed();
      }
      {
        const std::lock_guard<std::mutex> lock(mu);
        if (--remaining == 0) cv_done.notify_one();
      }
    }
  }

  /// Hand the wall-clock busy/stall rows to the obs runtime. Stall is
  /// the window wall time a participant spent NOT executing shards —
  /// barrier waiting plus claim overhead. Explicitly non-deterministic;
  /// the runtime exports it outside the determinism-checked sections.
  void publish_profile() {
    if (wall_ns == 0) return;
    std::vector<obs::WorkerProfile> rows;
    rows.reserve(stats.size());
    for (std::uint32_t w = 0; w < stats.size(); ++w) {
      obs::WorkerProfile row;
      row.pool = pool_id;
      row.worker = w;
      row.busy_ns = stats[w].busy_ns;
      row.stall_ns = wall_ns > stats[w].busy_ns ? wall_ns - stats[w].busy_ns
                                                : 0;
      row.windows = stats[w].windows;
      rows.push_back(row);
    }
    obs::Runtime::instance().publish_workers(std::move(rows));
  }

  struct WorkerStat {
    std::uint64_t busy_ns = 0;
    std::uint64_t windows = 0;
  };

  ShardedSimulator& sharded;
  std::mutex mu;
  std::condition_variable cv_work;
  std::condition_variable cv_done;
  std::uint64_t epoch = 0;
  unsigned remaining = 0;
  bool shutdown = false;
  std::atomic<std::uint32_t> cursor{0};
  std::vector<std::thread> threads;
  std::vector<WorkerStat> stats;  ///< index 0 is the coordinator
  std::uint64_t wall_ns = 0;      ///< profiled window wall time, summed
  std::uint32_t pool_id = 0;
};

ShardedSimulator::ShardedSimulator(const Config& config) : config_(config) {
  SIXG_ASSERT(config.shards >= 1, "a sharded run needs at least one shard");
  SIXG_ASSERT(config.window > Duration{},
              "the conservative window must be positive");
  const unsigned requested =
      config.workers != 0 ? config.workers
                          : std::max(1u, std::thread::hardware_concurrency());
  workers_ = std::min<unsigned>(requested, config.shards);
  shards_.reserve(config.shards);
  for (std::uint32_t k = 0; k < config.shards; ++k) {
    shards_.push_back(
        std::make_unique<Shard>(shard_seed(config.seed, k), config.shards));
  }
}

ShardedSimulator::~ShardedSimulator() = default;

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

void ShardedSimulator::run_claimed() {
  for (;;) {
    const std::uint32_t k =
        pool_->cursor.fetch_add(1, std::memory_order_relaxed);
    if (k >= shards_.size()) return;
    // Shard k's probes always land in shard k's scope, regardless of
    // which worker claimed it — the merged metrics (and the per-shard
    // trace streams) stay byte-identical at any worker count.
    const obs::ScopeBind bind(bind_scopes_ ? scopes_[k] : nullptr);
    shards_[k]->sim.run_until(horizon_);
  }
}

void ShardedSimulator::execute_shards() {
  if (workers_ <= 1) {
    for (std::uint32_t k = 0; k < shards_.size(); ++k) {
      const obs::ScopeBind bind(bind_scopes_ ? scopes_[k] : nullptr);
      shards_[k]->sim.run_until(horizon_);
    }
    return;
  }
  if (pool_ == nullptr) pool_ = std::make_unique<Pool>(*this, workers_);
  {
    const std::lock_guard<std::mutex> lock(pool_->mu);
    pool_->cursor.store(0, std::memory_order_relaxed);
    pool_->remaining = workers_ - 1;  // the coordinator checks in inline
    ++pool_->epoch;
  }
  pool_->cv_work.notify_all();
  if (profile_) {
    const std::uint64_t w0 = steady_ns();
    run_claimed();
    const std::uint64_t busy = steady_ns() - w0;
    pool_->stats[0].busy_ns += busy;
    ++pool_->stats[0].windows;
    std::unique_lock<std::mutex> lock(pool_->mu);
    pool_->cv_done.wait(lock, [&] { return pool_->remaining == 0; });
    pool_->wall_ns += steady_ns() - w0;
  } else {
    run_claimed();
    std::unique_lock<std::mutex> lock(pool_->mu);
    pool_->cv_done.wait(lock, [&] { return pool_->remaining == 0; });
  }
}

void ShardedSimulator::step_window(TimePoint horizon) {
  if (obs::kProbesCompiled) {
    // Latch per-window observability decisions on the coordinator; the
    // pool's epoch mutex publishes them to workers.
    bind_scopes_ = obs::probes_enabled();
    profile_ = obs::metrics_on() && workers_ > 1;
    if (bind_scopes_ && scopes_.empty()) {
      scopes_.resize(shards_.size());
      auto& rt = obs::Runtime::instance();
      for (std::uint32_t k = 0; k < shards_.size(); ++k) {
        scopes_[k] = rt.shard_scope(k);
      }
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
  execute_shards();
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
