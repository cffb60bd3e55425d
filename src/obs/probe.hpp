/// @file probe.hpp — the instrumentation surface hot paths include.
///
/// Deliberately tiny: this header is pulled into the kernel's event loop
/// and the serving slab path, so it carries no containers, no iostream,
/// nothing but the enabled flags, the metric/trace-name ids and the
/// probe macros. The heavy machinery (registry, scopes, JSON export)
/// lives in obs/obs.hpp and is only included by cold code.
///
/// Cost model, enforced by bench/obs_overhead.cpp:
///  * disabled: one relaxed atomic load + an untaken branch per probe
///    SITE — and the kernel's per-event path carries no probe site at
///    all (Simulator flushes counter deltas once per run()/run_until()
///    call instead of counting per event).
///  * enabled: an out-of-line call that bumps a slot in the current
///    thread's Scope. Never a cross-thread write — determinism rules
///    are documented in docs/ARCHITECTURE.md "Observability".
#pragma once

#include <atomic>
#include <cstdint>

namespace sixg::obs {

/// Every build carries the probes; the constant stays because the
/// benchmark manifest reports it.
inline constexpr bool kProbesCompiled = true;

/// Built-in metric ids. The registry (obs.hpp) maps each to a name, a
/// kind (counter / gauge / log2-histogram) and a dense per-kind slot.
enum class Metric : std::uint16_t {
  // counters
  kKernelEventsScheduled,   ///< seq numbers consumed (events + timer arms)
  kKernelEventsFired,       ///< events popped and executed
  kKernelHeapPushes,        ///< event-queue pushes: one-shot events and
                            ///< staged timer firings
  kKernelTimersArmed,       ///< wheel timers armed
  kKernelTimersCancelled,   ///< active timers cancelled
  kShardWindows,            ///< conservative windows executed
  kShardMessages,           ///< cross-shard messages delivered at barriers
  kServeSubmitted,          ///< requests admitted by accelerator servers
  kServeCompleted,          ///< requests completed by accelerator servers
  kServeDropped,            ///< requests dropped at full queues
  kServeBatches,            ///< batches launched
  kFleetArrivals,           ///< fleet requests spawned
  kFleetRemote,             ///< arrivals dispatched to a remote pod
  kFleetCompleted,          ///< fleet requests recorded done
  kFleetSloMisses,          ///< completed requests over the SLO
  kFleetTimeouts,           ///< requests that hit their deadline
  kFleetRetries,            ///< re-dispatch attempts made
  kFleetHedges,             ///< hedged duplicate requests launched
  kFleetShed,               ///< arrivals turned away by load shedding
  kFleetLost,               ///< submissions lost to server crashes
  kFaultEvents,             ///< fault-plan entries fired by the injector
  kTraceDropped,            ///< trace events dropped by the per-scope cap
  // gauges (coordinator/setup contexts only — a scope keeps the largest
  // value written and scopes merge by max, so the order of the writes
  // never matters; never written from concurrent shard execution)
  kShardLookaheadNs,        ///< largest conservative window (the lookahead)
  kShardShards,             ///< largest shard count of the section's
                            ///< sharded runs
  // log2 histograms
  kHistDrainMessages,       ///< messages delivered per barrier drain
  kHistBatchSize,           ///< requests per launched batch
  kHistQueueDepth,          ///< server queue depth at batch launch
  kMetricCount
};

/// Built-in trace span/instant names (interned; index into a name table).
enum class TraceName : std::uint8_t {
  kWindow,   ///< one conservative window of a sharded run
  kDrain,    ///< barrier mailbox drain (instant, arg = messages)
  kBatch,    ///< one accelerator batch (sampled)
  kQueue,    ///< queue wait of one sampled request
  kRequest,  ///< end-to-end lifecycle of one sampled fleet request
  kTraceNameCount
};

/// Deterministic trace sampling masks: a request/batch is traced when
/// (ordinal & mask) == 0, with the ordinal drawn from a deterministic
/// per-object counter (completions, batches). Keeps a multi-million
/// request trace file in the tens of megabytes.
inline constexpr std::uint64_t kTraceRequestMask = 63;  ///< 1 in 64
inline constexpr std::uint64_t kTraceBatchMask = 15;    ///< 1 in 16

namespace detail {
/// Bit flags of the enabled domains. Relaxed is correct: the flags only
/// change between runs (Runtime::configure, on the coordinating thread,
/// strictly before helper threads receive work through mutex hand-offs).
inline constexpr std::uint8_t kMetricsBit = 1;
inline constexpr std::uint8_t kTraceBit = 2;
extern std::atomic<std::uint8_t> g_flags;  // defined in obs.cpp
}  // namespace detail

[[nodiscard]] inline bool metrics_on() {
  return (detail::g_flags.load(std::memory_order_relaxed) &
          detail::kMetricsBit) != 0;
}
[[nodiscard]] inline bool trace_on() {
  return (detail::g_flags.load(std::memory_order_relaxed) &
          detail::kTraceBit) != 0;
}
[[nodiscard]] inline bool probes_enabled() {
  return detail::g_flags.load(std::memory_order_relaxed) != 0;
}

class Scope;

/// RAII binding of the thread's metric/trace slot; probes write there
/// and nowhere else. Null (probes no-op) until something binds a scope:
/// Runtime::configure binds the calling thread to the main scope,
/// ShardedSimulator binds shard scopes around shard execution, and
/// ParallelRunner binds per-worker scopes. Binding nullptr is a no-op
/// (the previous binding stays), so call sites can write
/// `ScopeBind b(enabled ? s : nullptr)`.
class ScopeBind {
 public:
  explicit ScopeBind(Scope* scope);
  ~ScopeBind();
  ScopeBind(const ScopeBind&) = delete;
  ScopeBind& operator=(const ScopeBind&) = delete;

 private:
  Scope* prev_ = nullptr;
  bool bound_ = false;
};

// Out-of-line probe bodies (obs.cpp): only reached when the domain is
// enabled, so the disabled path never pays the call.
void probe_count(Metric metric, std::uint64_t n);
void probe_gauge(Metric metric, double value);
void probe_hist(Metric metric, std::uint64_t value);
void probe_span(TraceName name, std::int64_t ts_ns, std::int64_t dur_ns,
                std::uint64_t arg);
void probe_instant(TraceName name, std::int64_t ts_ns, std::uint64_t arg);

}  // namespace sixg::obs

#define SIXG_OBS_COUNT(metric_, n_)                                     \
  do {                                                                  \
    if (::sixg::obs::metrics_on()) [[unlikely]]                         \
      ::sixg::obs::probe_count((metric_), (n_));                        \
  } while (0)
#define SIXG_OBS_GAUGE(metric_, v_)                                     \
  do {                                                                  \
    if (::sixg::obs::metrics_on()) [[unlikely]]                         \
      ::sixg::obs::probe_gauge((metric_), (v_));                        \
  } while (0)
#define SIXG_OBS_HIST(metric_, v_)                                      \
  do {                                                                  \
    if (::sixg::obs::metrics_on()) [[unlikely]]                         \
      ::sixg::obs::probe_hist((metric_), (v_));                         \
  } while (0)
#define SIXG_OBS_SPAN(name_, ts_ns_, dur_ns_, arg_)                     \
  do {                                                                  \
    if (::sixg::obs::trace_on()) [[unlikely]]                           \
      ::sixg::obs::probe_span((name_), (ts_ns_), (dur_ns_), (arg_));    \
  } while (0)
#define SIXG_OBS_INSTANT(name_, ts_ns_, arg_)                           \
  do {                                                                  \
    if (::sixg::obs::trace_on()) [[unlikely]]                           \
      ::sixg::obs::probe_instant((name_), (ts_ns_), (arg_));            \
  } while (0)
