#include "edgeai/fleet.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include "common/assert.hpp"
#include "edgeai/request_slab.hpp"
#include "faults/injector.hpp"
#include "netsim/sharded.hpp"
#include "netsim/simulator.hpp"
#include "obs/obs.hpp"
#include "obs/sampler.hpp"
#include "stats/distributions.hpp"

namespace sixg::edgeai {

double ArrivalShape::rate_multiplier(Duration since_start) const {
  double m = 1.0;
  if (diurnal_amplitude > 0.0 && !diurnal_period.is_zero()) {
    // Triangle wave on the phase in [0, 1): -1 at phase 0 (trough), +1
    // at 0.5 (peak). Integer modulo keeps the phase exact over long
    // runs; the wave itself is two FP ops, no libm.
    const double phase = double(since_start.ns() % diurnal_period.ns()) /
                         double(diurnal_period.ns());
    const double tri =
        1.0 - 4.0 * (phase < 0.5 ? 0.5 - phase : phase - 0.5);
    m = 1.0 + diurnal_amplitude * tri;
  }
  if (flash_multiplier != 1.0 && !flash_every.is_zero() &&
      !flash_duration.is_zero()) {
    if (since_start.ns() % flash_every.ns() < flash_duration.ns()) {
      m *= flash_multiplier;
    }
  }
  return m;
}

const char* to_string(DispatchPolicy policy) {
  switch (policy) {
    case DispatchPolicy::kRoundRobin:
      return "round-robin";
    case DispatchPolicy::kJoinShortestQueue:
      return "join-shortest-queue";
    case DispatchPolicy::kTierAffine:
      return "tier-affine";
  }
  return "?";
}

namespace {

/// FleetStudy's RNG streams (ServingStudy brings its own salts).
constexpr detail::StreamSalts kFleetSalts{0xf1ee, 0xf0b1, 0xfd01, 0xf95e};

/// Streaming end-to-end histogram shape: kE2eHistBins bins over
/// [0, kE2eHistHiMs) ms.
constexpr double kE2eHistHiMs = 250.0;
constexpr std::size_t kE2eHistBins = 500;

/// Remote requests ride the accelerator queue's payload word with their
/// origin shard packed above the uplink nanoseconds: (origin + 1) in the
/// top byte, up_ns below. Local submissions store plain up_ns, whose top
/// byte is zero for any latency under ~2 years — so the completion sink
/// distinguishes the paths from the payload alone.
constexpr unsigned kOriginShift = 56;
constexpr std::uint64_t kUplinkMask = (std::uint64_t{1} << kOriginShift) - 1;

/// Remote-path RNG stream salts (relative to the shard's engine seed).
/// Only drawn when a run actually has a remote pod to reach, which is
/// what keeps a 1-shard sharded run byte-identical to the serial engine.
constexpr std::uint64_t kRemoteRouteSalt = 0x5a07;  ///< coin + pod + uplink
constexpr std::uint64_t kRemoteDownSalt = 0x5a17;   ///< downlink at the pod

/// Per-arrival SLO-class draw (dedicated stream: the class mix cannot
/// perturb arrival, network or remote streams, and a classless config
/// never draws it).
constexpr std::uint64_t kClassSalt = 0xc1a5;

/// Payload origin-tag value marking a local hedged duplicate (never a
/// real origin: setup asserts the shard count stays below it). Lets the
/// completion sink route hedge copies without widening the payload word.
constexpr std::uint64_t kHedgeTag = 0xff;

/// dispatch() sentinel: no server is accepting (every candidate down or
/// draining). Only reachable when a fault schedule is active.
constexpr std::uint32_t kNoServer = std::numeric_limits<std::uint32_t>::max();

/// One fleet engine: the mutable state of one serving timeline — the
/// request slab, the server pool and the dispatch machinery. Events are
/// index-carrying inline captures (slot, server index and hop-local
/// durations), so a request costs zero heap allocations. This is the
/// only serving engine: ServingStudy runs it with one server.
///
/// The engine borrows its Simulator, so the same code serves the serial
/// studies (one engine, one owned timeline) and the sharded fleet (one
/// engine per shard of a netsim::ShardedSimulator). In the sharded case
/// the `sharded`/`peers` wiring is set and remote requests travel
/// through the cross-shard mailboxes; an engine NEVER writes
/// another shard's state directly — results and drop notices are posted
/// back to the owning timeline.
struct FleetEngine {
  struct ServerState {
    std::unique_ptr<AcceleratorServer> server;
    const FleetStudy::ServerSpec* spec = nullptr;
    bool networked = false;
    std::uint64_t dispatched = 0;
    stats::Summary queue_ms;
    /// Amortised per-request compute energy by batch size (device
    /// compute for the device tier, server compute otherwise).
    std::vector<double> compute_j_by_batch;
  };

  const FleetStudy::Config& config;
  netsim::Simulator& sim;
  InferenceEnergyModel energy;
  std::vector<ServerState> servers;
  /// Tier-affine preference: server indices grouped edge, cloud, device.
  std::vector<std::uint32_t> tier_order;
  std::vector<std::uint32_t> tier_group_end;  ///< exclusive end per group

  Rng arrival_rng;
  Rng uplink_rng;
  Rng downlink_rng;
  stats::ShiftedExponential interarrival;

  // Batch-sampling lane: each dedicated stream is pre-drawn a block at a
  // time through the vectorized samplers. Values and draw order are
  // bit-identical to per-request draws; pre-drawing merely advances a
  // stream early, which no other consumer shares (the trailing overdraw
  // at run end lands in a discarded stream). The leg blocks engage only
  // when EVERY networked server's leg draws identically — all networked
  // servers share the uplink (resp. downlink) stream, so one differing or
  // opaque leg forces the whole stream back to scalar per-request draws.
  static constexpr std::size_t kBlock = 256;
  topo::PathBatchScratch scratch;
  std::vector<double> arrival_sec;
  std::vector<Duration> uplink_block;
  std::vector<Duration> downlink_block;
  std::vector<Duration> remote_down_block;
  std::size_t arrival_next = 0;
  std::size_t uplink_next = 0;
  std::size_t downlink_next = 0;
  std::size_t remote_down_next = 0;
  const NetLeg* shared_uplink = nullptr;    ///< non-null = block engaged
  const NetLeg* shared_downlink = nullptr;  ///< non-null = block engaged
  bool batch_remote_down = false;

  /// Slot-recycled request records: in-flight requests are bounded by
  /// the fleet's queue capacities (plus events in the pipe), not by the
  /// run length, so the slab grows to the high-water mark and slots are
  /// reused. Slot values never influence event order, RNG draws or any
  /// report field, so recycling cannot perturb the output.
  RequestSlab slab;
  std::vector<std::uint32_t> free_slots;
  std::uint32_t spawned = 0;  ///< arrivals fired so far

  /// Observability sampler (present only when metrics + sampling are
  /// on). `inflight` is tracked ONLY when the sampler exists: the
  /// engine stops the sampler when its last request releases, so the
  /// sampler's self-re-arming tick chain can never extend the run past
  /// its uninstrumented end — window counts and the report digest stay
  /// byte-identical.
  std::unique_ptr<obs::PeriodicSampler> sampler;
  std::uint32_t inflight = 0;

  FleetStudy::Report& report;
  /// Retained per-request e2e samples (ServingStudy); null = streaming
  /// only.
  std::vector<double>* e2e_samples = nullptr;
  EnergyBreakdown energy_sum;
  TimePoint makespan;
  std::uint32_t round_robin_cursor = 0;

  Duration up_airtime;
  Duration down_airtime;
  double uplink_j = 0.0;
  double downlink_j = 0.0;
  Duration tx_rx_airtime;

  // -- sharded wiring (null/inert in the serial path) ---------------------
  netsim::ShardedSimulator* sharded = nullptr;
  FleetEngine* const* peers = nullptr;  ///< engine of every shard, by index
  std::uint32_t self = 0;
  std::uint32_t shard_count = 1;
  double remote_fraction = 0.0;
  const NetLeg* remote_uplink = nullptr;
  const NetLeg* remote_downlink = nullptr;
  Duration window;  ///< conservative window (drop notices ride it)
  Rng remote_route_rng;
  Rng remote_down_rng;
  std::uint64_t remote_sent = 0;

  // -- faults and resilience ----------------------------------------------
  // Gated by the config through the events they schedule: a fault plan
  // only when faults are configured, a deadline or hedge timer only when
  // its delay is non-zero, a retry only while budget remains. With none
  // configured every request runs the lifecycle's one-copy case.
  faults::FaultPlan fault_plan;
  faults::FaultInjector injector;
  /// Radio outage window: uplinks launched before this instant defer to
  /// it (the device cannot transmit). TimePoint{} = no outage.
  TimePoint radio_down_until;
  /// Per-slot cancellable timers, grown with the slab in acquire_slot().
  /// Cancelling a handle that was never armed, already fired or was
  /// already cancelled is a no-op, so release_slot cancels both for
  /// every slot; recycled slots are additionally guarded by the slab
  /// epoch the timer captured.
  std::vector<netsim::Simulator::TimerHandle> deadline_timers;
  std::vector<netsim::Simulator::TimerHandle> hedge_timers;

  // -- SLO classes + arrival shaping (cold unless configured) -------------
  /// True when Config::classes is non-empty: arrivals draw a class from
  /// `class_rng`, per-class admission control applies, submissions ride
  /// the class's accelerator lane and records score the class SLO. False
  /// = none of that executes and no class RNG is ever drawn.
  bool classes_on = false;
  bool shaped = false;  ///< Config::shape.active(), hoisted off the hot path
  Rng class_rng;
  /// Resolved per-class tables, indexed by class (setup_engine fills
  /// them: shares normalized to a cumulative distribution, zero slo /
  /// deadline replaced by their config-level defaults).
  std::vector<double> class_cum;
  std::vector<Duration> class_slo;
  std::vector<Duration> class_deadline;
  std::vector<std::uint32_t> class_lane;
  std::vector<std::uint32_t> class_shed;

  [[nodiscard]] std::uint32_t draw_class() {
    const double u = class_rng.uniform();
    std::uint32_t c = 0;
    while (c + 1 < class_cum.size() && u >= class_cum[c]) ++c;
    return c;
  }

  [[nodiscard]] std::uint64_t total_load() const {
    std::uint64_t total = 0;
    for (const ServerState& s : servers) total += load_of(s);
    return total;
  }

  FleetEngine(const FleetStudy::Config& cfg, netsim::Simulator& timeline,
              FleetStudy::Report& rep, const detail::StreamSalts& salts)
      : config(cfg),
        sim(timeline),
        energy(cfg.energy),
        // Independent derived streams: arrivals, uplink and downlink
        // draws cannot shift each other (determinism contract rule 2).
        arrival_rng(derive_seed(cfg.seed, salts.arrival)),
        uplink_rng(derive_seed(cfg.seed, salts.uplink)),
        downlink_rng(derive_seed(cfg.seed, salts.downlink)),
        interarrival(0.0, 1.0 / cfg.arrivals_per_second),
        report(rep),
        remote_route_rng(derive_seed(cfg.seed, kRemoteRouteSalt)),
        remote_down_rng(derive_seed(cfg.seed, kRemoteDownSalt)),
        shaped(cfg.shape.active()),
        class_rng(derive_seed(cfg.seed, kClassSalt)) {
    up_airtime = energy.uplink_airtime(cfg.model);
    down_airtime = energy.downlink_airtime(cfg.model);
    uplink_j = cfg.energy.radio.tx_watts * up_airtime.sec();
    downlink_j = cfg.energy.radio.rx_watts * down_airtime.sec();
    tx_rx_airtime = up_airtime + down_airtime;
    arrival_sec.resize(kBlock);
    arrival_next = kBlock;  // empty: first draw refills
  }

  /// Engage the leg blocks where provably safe. Called by setup_engine
  /// once the server pool (and, in sharded runs, the remote wiring) is
  /// final.
  void init_batch_lane() {
    const NetLeg* shared[2] = {nullptr, nullptr};
    bool engaged[2] = {true, true};
    for (const ServerState& s : servers) {
      if (!s.networked) continue;  // draws nothing from either stream
      const NetLeg* legs[2] = {&s.spec->uplink, &s.spec->downlink};
      for (int dir = 0; dir < 2; ++dir) {
        if (!legs[dir]->batchable())
          engaged[dir] = false;
        else if (!shared[dir])
          shared[dir] = legs[dir];
        else if (!shared[dir]->same_draws_as(*legs[dir]))
          engaged[dir] = false;
      }
    }
    if (engaged[0] && shared[0]) {
      shared_uplink = shared[0];
      uplink_block.resize(kBlock);
      uplink_next = kBlock;
    }
    if (engaged[1] && shared[1]) {
      shared_downlink = shared[1];
      downlink_block.resize(kBlock);
      downlink_next = kBlock;
    }
    // remote_uplink can NEVER batch: its draws interleave with the
    // remote coin and the pod pick on remote_route_rng, so pre-drawing
    // would desync that stream. remote_down_rng is dedicated (downlink
    // draws in completion order), so the downlink leg batches freely.
    if (remote_fraction > 0.0 && shard_count > 1 && remote_downlink &&
        *remote_downlink && remote_downlink->batchable()) {
      batch_remote_down = true;
      remote_down_block.resize(kBlock);
      remote_down_next = kBlock;
    }
  }

  [[nodiscard]] Duration next_interarrival() {
    if (arrival_next == arrival_sec.size()) {
      interarrival.sample_into(arrival_sec, arrival_rng);
      arrival_next = 0;
    }
    const double sec = arrival_sec[arrival_next++];
    // Arrival shaping scales the draw by the instantaneous rate
    // multiplier at the generating event's time (arrivals are chained,
    // so that time is always available). The unshaped draw passes
    // through untouched — the same expression, the same bits.
    if (shaped) [[unlikely]] {
      return Duration::from_seconds_f(
          sec / config.shape.rate_multiplier(sim.now() - TimePoint{}));
    }
    return Duration::from_seconds_f(sec);
  }

  [[nodiscard]] Duration next_uplink(const ServerState& target) {
    if (!shared_uplink) return target.spec->uplink(uplink_rng);
    if (uplink_next == uplink_block.size()) {
      shared_uplink->sample_into(uplink_block, uplink_rng, scratch);
      uplink_next = 0;
    }
    return uplink_block[uplink_next++];
  }

  [[nodiscard]] Duration next_downlink(const ServerState& from) {
    if (!shared_downlink) return from.spec->downlink(downlink_rng);
    if (downlink_next == downlink_block.size()) {
      shared_downlink->sample_into(downlink_block, downlink_rng, scratch);
      downlink_next = 0;
    }
    return downlink_block[downlink_next++];
  }

  [[nodiscard]] Duration next_remote_down() {
    if (!batch_remote_down) return (*remote_downlink)(remote_down_rng);
    if (remote_down_next == remote_down_block.size()) {
      remote_downlink->sample_into(remote_down_block, remote_down_rng,
                                   scratch);
      remote_down_next = 0;
    }
    return remote_down_block[remote_down_next++];
  }

  [[nodiscard]] std::uint32_t acquire_slot() {
    if (!free_slots.empty()) {
      const std::uint32_t slot = free_slots.back();
      free_slots.pop_back();
      return slot;
    }
    deadline_timers.emplace_back();
    hedge_timers.emplace_back();
    return slab.grow();
  }

  /// Cancel the slot's timers, bump its epoch and recycle it. The epoch
  /// bump invalidates every timer event still carrying this slot: a stale
  /// firing sees the mismatch and no-ops.
  void release_slot(std::uint32_t slot) {
    deadline_timers[slot].cancel();
    hedge_timers[slot].cancel();
    RequestSlab::Record& r = slab[slot];
    ++r.epoch;
    r.state = RequestSlab::State::kScheduled;
    free_slots.push_back(slot);
    if (sampler && --inflight == 0 && spawned == config.requests) {
      sampler->stop();
    }
  }

  /// Drop one live copy's hold on `slot`; the last one recycles it.
  void drop_copy(std::uint32_t slot) {
    if (--slab[slot].pending == 0) release_slot(slot);
  }

  /// Has the request settled (a copy delivered or the deadline expired)?
  [[nodiscard]] bool settled(std::uint32_t slot) const {
    return slab[slot].flags &
           (RequestSlab::kDelivered | RequestSlab::kTimedOutFlag);
  }

  [[nodiscard]] std::uint64_t load_of(const ServerState& s) const {
    return s.server->queue_depth() + s.server->in_service();
  }

  /// Health-aware min-load scan: down/draining servers are never picked.
  /// With every server up this selects exactly what the health-blind
  /// scan did (strict-less keeps the lowest index on ties), which is
  /// what preserves zero-fault byte-identity. kNoServer if none accepts.
  /// Health is read only for a server whose load would beat the best so
  /// far; skipping the others cannot change the pick.
  [[nodiscard]] std::uint32_t pick_min_load(std::uint32_t const* begin,
                                            std::uint32_t const* end) const {
    std::uint32_t best = kNoServer;
    std::uint64_t best_load = std::numeric_limits<std::uint64_t>::max();
    for (const std::uint32_t* it = begin; it != end; ++it) {
      const std::uint64_t load = load_of(servers[*it]);
      if (load < best_load && servers[*it].server->accepting()) {
        best = *it;
        best_load = load;
      }
    }
    return best;
  }

  [[nodiscard]] std::uint32_t dispatch() {
    switch (config.policy) {
      case DispatchPolicy::kRoundRobin: {
        // First accepting server at or after the cursor; one probe (and
        // one cursor step) per arrival when the fleet is healthy.
        for (std::uint32_t probes = 0; probes < servers.size(); ++probes) {
          const std::uint32_t pick = round_robin_cursor;
          round_robin_cursor =
              (round_robin_cursor + 1) % std::uint32_t(servers.size());
          if (servers[pick].server->accepting()) [[likely]] return pick;
        }
        return kNoServer;
      }
      case DispatchPolicy::kJoinShortestQueue:
        break;  // the all-servers scan below
      case DispatchPolicy::kTierAffine: {
        std::uint32_t group_begin = 0;
        for (const std::uint32_t group_end : tier_group_end) {
          if (group_end > group_begin) {
            const std::uint32_t pick = pick_min_load(
                tier_order.data() + group_begin,
                tier_order.data() + group_end);
            if (pick != kNoServer &&
                load_of(servers[pick]) < config.tier_spill_depth)
              return pick;
          }
          group_begin = group_end;
        }
        break;  // every tier saturated (or down): fall back to global JSQ
      }
    }
    std::uint32_t best = kNoServer;
    std::uint64_t best_load = std::numeric_limits<std::uint64_t>::max();
    for (std::uint32_t k = 0; k < servers.size(); ++k) {
      const std::uint64_t load = load_of(servers[k]);
      if (load < best_load && servers[k].server->accepting()) {
        best = k;
        best_load = load;
      }
    }
    return best;
  }

  void on_arrival();
  /// Dispatch one copy of `slot` to a healthy server and launch its
  /// uplink. `hedge` tags the copy for first-completion-wins accounting.
  /// Inline so the compiler can fold it into the arrival event.
  inline void launch_copy(std::uint32_t slot, bool hedge);
  void on_submit(std::uint32_t slot, std::uint32_t server, Duration up,
                 std::uint8_t hedge);
  void on_complete(std::uint32_t server, std::uint32_t slot,
                   std::uint64_t payload,
                   const AcceleratorServer::Completion& completion);
  void on_record(std::uint32_t slot, std::uint32_t server, std::uint32_t batch,
                 Duration net, Duration queue_wait, Duration service,
                 std::uint8_t hedge);
  /// Score the request's first result to reach its device (local or
  /// remote): report rows, class row, energy, makespan. Then settle the
  /// slot: mark it delivered, cancel its timers and drop the copy.
  /// Forced inline into both record handlers: as a call, the hottest
  /// per-request event would pay for saving registers and passing seven
  /// arguments.
  [[gnu::always_inline]] inline void deliver(
      std::uint32_t slot, std::uint32_t batch, Duration net,
      Duration queue_wait, Duration service, bool networked,
      double compute_j);
  /// One live copy of `slot` resolved without a delivered result (queue
  /// drop, crash loss, unhealthy rejection, no dispatchable server,
  /// remote drop notice): retry while budget remains, else settle.
  void copy_died(std::uint32_t slot);

  // Handlers that only timers and faults reach. [[gnu::cold]] keeps them
  // out of the hot event loop's text: a run without deadlines, hedges,
  // retries or faults never calls them, and the ≤2% overhead gate
  // (bench/faults.cpp) is sensitive to I-cache pressure in this TU.
  [[gnu::cold]] void on_timeout(std::uint32_t slot, std::uint32_t epoch);
  [[gnu::cold]] void on_hedge(std::uint32_t slot, std::uint32_t epoch);
  [[gnu::cold]] void on_retry(std::uint32_t slot, std::uint32_t epoch);
  /// AcceleratorServer failure sink: a crash lost this submission.
  [[gnu::cold]] void on_lost(std::uint32_t slot, std::uint64_t payload);
  /// Uplink deferral while the pod's radio domain is down.
  [[nodiscard]] Duration radio_defer() const {
    return radio_down_until > sim.now() ? radio_down_until - sim.now()
                                        : Duration{};
  }

  // Remote-path handlers (sharded runs only).
  void dispatch_remote(std::uint32_t slot);
  void on_remote_submit(std::uint32_t origin, std::uint32_t slot,
                        std::int64_t up_ns, std::uint8_t lane);
  void on_remote_record(std::uint32_t slot, std::uint32_t batch,
                        std::int64_t net_ns, std::int64_t queue_ns,
                        std::int64_t service_ns, double compute_j);
  void on_remote_drop(std::uint32_t slot);
};

struct FleetArrivalEvent {
  FleetEngine* engine;
  void operator()() const { engine->on_arrival(); }
};
static_assert(sizeof(FleetArrivalEvent) <= netsim::InplaceAction::kInlineBytes);

struct FleetSubmitEvent {
  FleetEngine* engine;
  std::uint32_t slot;
  std::uint32_t server;
  Duration up;
  std::uint8_t hedge;  ///< this copy is a hedged duplicate
  void operator()() const { engine->on_submit(slot, server, up, hedge); }
};
static_assert(sizeof(FleetSubmitEvent) <= netsim::InplaceAction::kInlineBytes);

struct FleetRecordEvent {
  FleetEngine* engine;
  std::uint32_t slot;
  std::uint32_t server;
  std::uint32_t batch;
  std::uint8_t hedge;
  Duration net;
  Duration queue_wait;
  Duration service;
  void operator()() const {
    engine->on_record(slot, server, batch, net, queue_wait, service, hedge);
  }
};
static_assert(sizeof(FleetRecordEvent) <= netsim::InplaceAction::kInlineBytes);

/// Slot-carrying timer events. Each captures the slab epoch it was
/// armed under; the handler no-ops on mismatch, so a stale firing from
/// a recycled slot can never act on the wrong request (regression-tested
/// in tests/test_faults.cpp).
struct FleetTimeoutEvent {
  FleetEngine* engine;
  std::uint32_t slot;
  std::uint32_t epoch;
  void operator()() const { engine->on_timeout(slot, epoch); }
};
static_assert(sizeof(FleetTimeoutEvent) <= netsim::InplaceAction::kInlineBytes);

struct FleetHedgeEvent {
  FleetEngine* engine;
  std::uint32_t slot;
  std::uint32_t epoch;
  void operator()() const { engine->on_hedge(slot, epoch); }
};
static_assert(sizeof(FleetHedgeEvent) <= netsim::InplaceAction::kInlineBytes);

struct FleetRetryEvent {
  FleetEngine* engine;
  std::uint32_t slot;
  std::uint32_t epoch;
  void operator()() const { engine->on_retry(slot, epoch); }
};
static_assert(sizeof(FleetRetryEvent) <= netsim::InplaceAction::kInlineBytes);

/// Executes on the REMOTE pod's timeline, delivered through the mailbox.
struct RemoteSubmitEvent {
  FleetEngine* engine;  ///< destination (serving) shard's engine
  std::uint32_t origin;
  std::uint32_t slot;  ///< origin shard's slot — opaque here
  std::int64_t up_ns;
  std::uint8_t lane;  ///< origin class's priority lane at the serving pod
  void operator()() const {
    engine->on_remote_submit(origin, slot, up_ns, lane);
  }
};
static_assert(sizeof(RemoteSubmitEvent) <= netsim::InplaceAction::kInlineBytes);

/// Executes back on the ORIGIN pod's timeline: the only place the origin
/// shard's slab and report are touched for a remote request.
struct RemoteRecordEvent {
  FleetEngine* engine;  ///< origin shard's engine
  std::uint32_t slot;
  std::uint32_t batch;
  std::int64_t net_ns;
  std::int64_t queue_ns;
  std::int64_t service_ns;
  double compute_j;
  void operator()() const {
    engine->on_remote_record(slot, batch, net_ns, queue_ns, service_ns,
                             compute_j);
  }
};
static_assert(sizeof(RemoteRecordEvent) <= netsim::InplaceAction::kInlineBytes);

struct RemoteDropEvent {
  FleetEngine* engine;  ///< origin shard's engine
  std::uint32_t slot;
  void operator()() const { engine->on_remote_drop(slot); }
};
static_assert(sizeof(RemoteDropEvent) <= netsim::InplaceAction::kInlineBytes);

void FleetEngine::on_arrival() {
  if (++spawned < config.requests) {
    // Chain the next arrival first: at an exact time tie this keeps the
    // arrival ahead of this request's serving events. Only one arrival
    // is ever pending, so the kernel queue stays O(in-flight).
    const Duration delta = next_interarrival();
    sim.schedule_at(sim.now() + delta, FleetArrivalEvent{this});
  }
  const ResilienceConfig& res = config.resilience;
  // Admission control: the tighter of the fleet and class shed bounds
  // (zero = no bound) turns the arrival away before it holds a slot or
  // draws any network stream.
  std::uint32_t cls = 0;
  std::uint32_t shed_bound = res.shed_queue_depth;
  if (classes_on) [[unlikely]] {
    cls = draw_class();
    ++report.classes[cls].offered;
    const std::uint32_t class_bound = class_shed[cls];
    if (class_bound > 0 && (shed_bound == 0 || class_bound < shed_bound))
      shed_bound = class_bound;
  }
  if (shed_bound > 0 && total_load() >= shed_bound) [[unlikely]] {
    ++report.shed;
    ++report.failed;
    if (classes_on) {
      ++report.classes[cls].shed;
      ++report.classes[cls].failed;
    }
    SIXG_OBS_COUNT(obs::Metric::kFleetShed, 1);
    // The shed arrival never held a slot, so it cannot trigger the
    // last-release sampler stop — do it here when it was the last.
    if (sampler && inflight == 0 && spawned == config.requests) {
      sampler->stop();
    }
    return;
  }
  const std::uint32_t slot = acquire_slot();
  RequestSlab::Record& r = slab[slot];
  SIXG_ASSERT(r.state == RequestSlab::State::kScheduled,
              "acquired slot is not idle");
  r.device_start = sim.now();
  r.state = RequestSlab::State::kUplink;
  r.attempt = 0;
  r.pending = 1;
  r.flags = 0;
  r.cls = std::uint8_t(cls);
  SIXG_OBS_COUNT(obs::Metric::kFleetArrivals, 1);
  if (sampler) ++inflight;
  // Class deadlines resolve at setup (zero spec inherits res.deadline),
  // so the table lookup already IS the effective deadline.
  const Duration deadline = classes_on ? class_deadline[cls] : res.deadline;
  if (!deadline.is_zero()) [[unlikely]] {
    deadline_timers[slot] = sim.schedule_once(
        deadline, FleetTimeoutEvent{this, slot, r.epoch});
  }
  // The remote coin is tossed only when a remote pod exists, so a
  // 1-shard (or fully partitioned) run never consumes the stream.
  if (remote_fraction > 0.0 && shard_count > 1 &&
      remote_route_rng.chance(remote_fraction)) {
    // Remote requests are never hedged (a duplicate would double the
    // cross-shard traffic for a copy the origin cannot cancel); a
    // remote drop notice still retries locally.
    dispatch_remote(slot);
    return;
  }
  if (!res.hedge_delay.is_zero()) [[unlikely]] {
    hedge_timers[slot] = sim.schedule_once(
        res.hedge_delay, FleetHedgeEvent{this, slot, r.epoch});
  }
  launch_copy(slot, /*hedge=*/false);
}

void FleetEngine::launch_copy(std::uint32_t slot, bool hedge) {
  const std::uint32_t k = dispatch();
  if (k == kNoServer) [[unlikely]] {
    copy_died(slot);
    return;
  }
  ServerState& target = servers[k];
  ++target.dispatched;
  Duration up =
      target.networked ? next_uplink(target) + up_airtime : Duration{};
  if (!up.is_zero()) up = up + radio_defer();
  slab[slot].state = RequestSlab::State::kUplink;
  const std::uint8_t tag = hedge ? 1 : 0;
  if (up.is_zero()) {
    on_submit(slot, k, up, tag);
    return;
  }
  sim.schedule_after(up, FleetSubmitEvent{this, slot, k, up, tag});
}

void FleetEngine::on_submit(std::uint32_t slot, std::uint32_t server,
                            Duration up, std::uint8_t hedge) {
  const std::uint64_t payload =
      hedge ? (kHedgeTag << kOriginShift) | std::uint64_t(up.ns())
            : std::uint64_t(up.ns());
  RequestSlab::Record& r = slab[slot];
  const std::uint32_t lane = classes_on ? class_lane[r.cls] : 0;
  if (servers[server].server->submit(slot, payload, lane)) {
    // A hedge copy can reach its server after the request settled
    // (delivered or timed out): the slot is then past kUplink and keeps
    // its state.
    if (r.state == RequestSlab::State::kUplink)
      r.state = RequestSlab::State::kQueued;
    return;
  }
  // An accepting server only refuses on a full lane ring — attribute the
  // drop event to the class (health rejections are counted per server).
  if (classes_on && servers[server].server->accepting()) [[unlikely]]
    ++report.classes[r.cls].dropped_queue_full;
  copy_died(slot);
}

void FleetEngine::dispatch_remote(std::uint32_t slot) {
  ++remote_sent;
  SIXG_OBS_COUNT(obs::Metric::kFleetRemote, 1);
  // Uniform choice among the other pods, then the inter-pod uplink leg.
  const std::uint32_t pick =
      std::uint32_t(remote_route_rng.uniform_int(shard_count - 1));
  const std::uint32_t dst = pick >= self ? pick + 1 : pick;
  const Duration up =
      (*remote_uplink)(remote_route_rng) + up_airtime + radio_defer();
  SIXG_ASSERT((std::uint64_t(up.ns()) >> kOriginShift) == 0,
              "remote uplink latency overflows the payload word");
  const std::uint8_t lane =
      classes_on ? std::uint8_t(class_lane[slab[slot].cls]) : 0;
  sharded->post(self, dst, sim.now() + up,
                RemoteSubmitEvent{peers[dst], self, slot, up.ns(), lane});
}

void FleetEngine::on_remote_submit(std::uint32_t origin, std::uint32_t slot,
                                   std::int64_t up_ns, std::uint8_t lane) {
  const std::uint32_t k = dispatch();
  if (k == kNoServer) [[unlikely]] {
    // Every server of this pod is down or draining: same contract as a
    // full queue — the owner decides (drop or failover) on its own
    // timeline, reached through the mailbox.
    sharded->post(self, origin, sim.now() + window,
                  RemoteDropEvent{peers[origin], slot});
    return;
  }
  ServerState& target = servers[k];
  ++target.dispatched;
  const std::uint64_t payload =
      ((std::uint64_t(origin) + 1) << kOriginShift) | std::uint64_t(up_ns);
  if (!target.server->submit(slot, payload, lane)) {
    // Queue full. The owner must record the drop and recycle the slot;
    // never touch another shard's slab from this timeline — post the
    // notice back through the mailbox (it rides the window, the floor
    // any cross-shard signal must respect).
    sharded->post(self, origin, sim.now() + window,
                  RemoteDropEvent{peers[origin], slot});
  }
}

void FleetEngine::on_complete(std::uint32_t server, std::uint32_t slot,
                              std::uint64_t payload,
                              const AcceleratorServer::Completion& completion) {
  ServerState& from = servers[server];
  const std::uint64_t origin_tag = payload >> kOriginShift;
  if (origin_tag != 0 && origin_tag != kHedgeTag) {
    // A remote pod's request: finish the serving-side accounting here,
    // then post the result back to the owning timeline.
    const std::uint32_t origin = std::uint32_t(origin_tag) - 1;
    from.queue_ms.add(completion.queue_wait().ms());
    const Duration down = next_remote_down() + down_airtime;
    const Duration net =
        Duration::nanos(std::int64_t(payload & kUplinkMask)) + down;
    sharded->post(
        self, origin, sim.now() + down,
        RemoteRecordEvent{peers[origin], slot, completion.batch_size, net.ns(),
                          completion.queue_wait().ns(),
                          completion.service().ns(),
                          from.compute_j_by_batch[completion.batch_size]});
    return;
  }
  const std::uint8_t hedge = origin_tag == kHedgeTag ? 1 : 0;
  // Under hedging/timeout a copy may complete after the request settled
  // (winner already in downlink or recorded, or the deadline expired):
  // the slot is then past kQueued and must not be stomped back. It still
  // holds the copy's reference until the record resolves.
  RequestSlab::Record& r = slab[slot];
  SIXG_ASSERT(r.pending > 0 && r.state != RequestSlab::State::kScheduled,
              "fleet completion for a slot with no live copy");
  if (r.state == RequestSlab::State::kQueued)
    r.state = RequestSlab::State::kDownlink;
  const Duration down =
      from.networked ? next_downlink(from) + down_airtime : Duration{};
  const Duration net =
      Duration::nanos(std::int64_t(payload & kUplinkMask)) + down;
  if (down.is_zero()) {
    on_record(slot, server, completion.batch_size, net,
              completion.queue_wait(), completion.service(), hedge);
    return;
  }
  sim.schedule_after(down, FleetRecordEvent{this, slot, server,
                                            completion.batch_size, hedge, net,
                                            completion.queue_wait(),
                                            completion.service()});
}

void FleetEngine::on_record(std::uint32_t slot, std::uint32_t server,
                            std::uint32_t batch, Duration net,
                            Duration queue_wait, Duration service,
                            std::uint8_t hedge) {
  if (settled(slot)) [[unlikely]] {
    // The race is over (the other copy delivered, or the deadline
    // expired): this result is discarded — lazy cancellation of the
    // hedge loser. Its slot reference resolves here.
    drop_copy(slot);
    return;
  }
  ServerState& from = servers[server];
  from.queue_ms.add(queue_wait.ms());
  if (hedge) ++report.hedge_wins;
  deliver(slot, batch, net, queue_wait, service, from.networked,
          from.compute_j_by_batch[batch]);
}

void FleetEngine::on_remote_record(std::uint32_t slot, std::uint32_t batch,
                                   std::int64_t net_ns, std::int64_t queue_ns,
                                   std::int64_t service_ns, double compute_j) {
  if (settled(slot)) [[unlikely]] {
    drop_copy(slot);
    return;
  }
  SIXG_ASSERT(slab[slot].state == RequestSlab::State::kUplink,
              "remote record for a slot that is not in flight");
  // A remote request is always networked: radio energy on this device,
  // compute amortised on the serving pod's accelerator.
  deliver(slot, batch, Duration::nanos(net_ns), Duration::nanos(queue_ns),
          Duration::nanos(service_ns), /*networked=*/true, compute_j);
}

void FleetEngine::deliver(std::uint32_t slot, std::uint32_t batch,
                          Duration net, Duration queue_wait, Duration service,
                          bool networked, double compute_j) {
  RequestSlab::Record& r = slab[slot];
  const Duration e2e = sim.now() - r.device_start;
  const double e2e_ms = e2e.ms();
  report.e2e_ms.add(e2e_ms);
  report.e2e_q.add(e2e_ms);
  report.e2e_hist->add(e2e_ms);
  if (e2e_samples) e2e_samples->push_back(e2e_ms);
  report.network_ms.add(net.ms());
  report.queue_ms.add(queue_wait.ms());
  report.service_ms.add(service.ms());
  report.batch_size.add(double(batch));
  SIXG_OBS_COUNT(obs::Metric::kFleetCompleted, 1);
  const Duration slo = classes_on ? class_slo[r.cls] : config.slo;
  if (e2e <= slo) {
    ++report.within_slo;
  } else {
    SIXG_OBS_COUNT(obs::Metric::kFleetSloMisses, 1);
  }
  if (classes_on) [[unlikely]] {
    FleetStudy::Report::ClassStats& cs = report.classes[r.cls];
    ++cs.delivered;
    cs.e2e_ms.add(e2e_ms);
    if (e2e <= slo) ++cs.within_slo;
  }
  // Deterministic 1-in-64 request-lifecycle sampling, keyed on the
  // report's own completion ordinal.
  if (obs::kProbesCompiled && obs::trace_on() &&
      (report.e2e_ms.count() & obs::kTraceRequestMask) == 0) {
    obs::probe_span(obs::TraceName::kRequest, r.device_start.ns(), e2e.ns(),
                    batch);
  }
  if (networked) {
    energy_sum.uplink_j += uplink_j;
    energy_sum.downlink_j += downlink_j;
    energy_sum.wait_j += config.energy.radio.idle_watts *
                         std::max(0.0, (e2e - tx_rx_airtime).sec());
    energy_sum.server_compute_j += compute_j;
  } else {
    energy_sum.device_compute_j += compute_j;
  }
  if (sim.now() > makespan) makespan = sim.now();
  r.state = RequestSlab::State::kDone;
  r.flags |= RequestSlab::kDelivered;
  // Delivery cancels the deadline and hedge timers in O(1), so no stale
  // timeout event survives a delivered request (tests/test_faults.cpp
  // pins this): release_slot does it, or here while a twin still races.
  if (--r.pending == 0) {
    release_slot(slot);
    return;
  }
  deadline_timers[slot].cancel();
  hedge_timers[slot].cancel();
}

void FleetEngine::on_remote_drop(std::uint32_t slot) {
  const RequestSlab::Record& r = slab[slot];
  SIXG_ASSERT(r.state == RequestSlab::State::kUplink ||
                  r.state == RequestSlab::State::kTimedOut,
              "remote drop notice for a slot that is not in flight");
  // The mailbox notice does not carry the serving pod's drop reason;
  // charge the class's queue-full counter (the overwhelmingly common
  // cause — a crashed pod's rejections ride the same notice).
  if (classes_on) ++report.classes[r.cls].dropped_queue_full;
  // The serving pod dropped or lost this copy; the failure crossed the
  // shard boundary through the mailbox and resolves HERE, on the owning
  // timeline — retry locally while budget remains, else settle.
  copy_died(slot);
}

void FleetEngine::copy_died(std::uint32_t slot) {
  RequestSlab::Record& r = slab[slot];
  SIXG_ASSERT(r.pending > 0, "a copy died on a slot with no live copy");
  if (!settled(slot) && r.attempt < config.resilience.max_retries) {
    ++r.attempt;
    ++report.retries;
    SIXG_OBS_COUNT(obs::Metric::kFleetRetries, 1);
    const Duration backoff = config.resilience.retry_backoff;
    if (backoff.is_zero()) {
      // Immediate failover (health-aware dispatch avoids the server
      // that just failed us). Bounded by the retry budget even when
      // every server rejects.
      launch_copy(slot, /*hedge=*/false);
    } else {
      // Deterministic exponential backoff, no jitter: attempt k waits
      // backoff * 2^(k-1) (shift capped so a huge budget cannot
      // overflow the tick arithmetic).
      const unsigned shift = std::min<unsigned>(r.attempt - 1u, 20u);
      sim.schedule_after(Duration::nanos(backoff.ns() << shift),
                         FleetRetryEvent{this, slot, r.epoch});
    }
    // pending unchanged: the retry inherits the dead copy's slot hold.
    return;
  }
  if (--r.pending > 0) return;
  if (!settled(slot)) {
    // Last copy gone and nothing delivered: the request failed.
    r.state = RequestSlab::State::kDropped;
    ++report.failed;
    if (classes_on) ++report.classes[r.cls].failed;
  }
  release_slot(slot);
}

void FleetEngine::on_timeout(std::uint32_t slot, std::uint32_t epoch) {
  // A stale timer of a recycled slot, or a request already settled.
  if (slab[slot].epoch != epoch || settled(slot)) return;
  RequestSlab::Record& r = slab[slot];
  r.flags |= RequestSlab::kTimedOutFlag;
  r.state = RequestSlab::State::kTimedOut;
  ++report.timed_out;
  ++report.failed;
  if (classes_on) {
    FleetStudy::Report::ClassStats& cs = report.classes[r.cls];
    ++cs.timed_out;
    ++cs.failed;
  }
  SIXG_OBS_COUNT(obs::Metric::kFleetTimeouts, 1);
  hedge_timers[slot].cancel();
  // Copies still in flight drain through the discard paths and release
  // the slot when the last one resolves; pending stays untouched here.
}

void FleetEngine::on_hedge(std::uint32_t slot, std::uint32_t epoch) {
  if (slab[slot].epoch != epoch || settled(slot)) return;
  ++report.hedges;
  SIXG_OBS_COUNT(obs::Metric::kFleetHedges, 1);
  ++slab[slot].pending;
  launch_copy(slot, /*hedge=*/true);
}

void FleetEngine::on_retry(std::uint32_t slot, std::uint32_t epoch) {
  if (slab[slot].epoch != epoch) return;
  if (settled(slot)) {
    // Settled while we backed off: this resurrected copy dies unborn.
    drop_copy(slot);
    return;
  }
  launch_copy(slot, /*hedge=*/false);
}

void FleetEngine::on_lost(std::uint32_t slot, std::uint64_t payload) {
  SIXG_OBS_COUNT(obs::Metric::kFleetLost, 1);
  const std::uint64_t origin_tag = payload >> kOriginShift;
  if (origin_tag != 0 && origin_tag != kHedgeTag) {
    // A remote pod's request died in our crash: its owner decides what
    // happens next, on its own timeline, through the mailbox.
    const std::uint32_t origin = std::uint32_t(origin_tag) - 1;
    sharded->post(self, origin, sim.now() + window,
                  RemoteDropEvent{peers[origin], slot});
    return;
  }
  copy_died(slot);
}

/// Build the server pool and the tier-affine preference order, and chain
/// the first arrival. Shared verbatim between the serial and sharded
/// paths — that sharing IS the 1-shard byte-equivalence argument.
void setup_engine(FleetEngine& engine, const FleetStudy::Config& config) {
  engine.servers.reserve(config.servers.size());
  for (std::uint32_t k = 0; k < config.servers.size(); ++k) {
    const FleetStudy::ServerSpec& spec = config.servers[k];
    SIXG_ASSERT(static_cast<bool>(spec.uplink) ==
                    static_cast<bool>(spec.downlink),
                "per-server uplink and downlink samplers must be set "
                "together");
    SIXG_ASSERT(!static_cast<bool>(spec.uplink) ||
                    spec.tier != ExecutionTier::kDevice,
                "the device tier is on-device: no network samplers");
    FleetEngine::ServerState state;
    state.spec = &spec;
    state.networked = static_cast<bool>(spec.uplink);
    state.server = std::make_unique<AcceleratorServer>(
        engine.sim, spec.accelerator, config.model, spec.batching);
    FleetEngine* owner = &engine;
    state.server->set_completion_sink(
        [owner, k](std::uint32_t slot, std::uint64_t payload,
                   const AcceleratorServer::Completion& completion) {
          owner->on_complete(k, slot, payload, completion);
        });
    // Only a crash, i.e. a fault-plan event, ever calls the failure sink.
    state.server->set_failure_sink(
        [owner](std::uint32_t slot, std::uint64_t payload) {
          owner->on_lost(slot, payload);
        });
    state.compute_j_by_batch.resize(std::size_t{1} + spec.batching.max_batch);
    for (std::uint32_t b = 1; b <= spec.batching.max_batch; ++b) {
      state.compute_j_by_batch[b] =
          spec.accelerator.batch_joules(config.model, b) / double(b);
    }
    engine.servers.push_back(std::move(state));
  }
  // Tier-affine preference groups in fixed edge -> cloud -> device order.
  for (const ExecutionTier tier :
       {ExecutionTier::kEdge, ExecutionTier::kCloud, ExecutionTier::kDevice}) {
    for (std::uint32_t k = 0; k < config.servers.size(); ++k) {
      if (config.servers[k].tier == tier) engine.tier_order.push_back(k);
    }
    engine.tier_group_end.push_back(std::uint32_t(engine.tier_order.size()));
  }

  engine.init_batch_lane();

  // SLO classes: resolve the spec list into flat per-class tables.
  // Config-gated — with no classes the class stream is never drawn and
  // none of this executes.
  if (!config.classes.empty()) {
    SIXG_ASSERT(config.classes.size() <= 256,
                "the per-slot class index is one byte");
    engine.classes_on = true;
    double total_share = 0.0;
    for (const FleetStudy::SloClassSpec& c : config.classes) {
      SIXG_ASSERT(c.share > 0.0, "class share must be positive");
      total_share += c.share;
    }
    double cum = 0.0;
    for (const FleetStudy::SloClassSpec& c : config.classes) {
      for (const FleetStudy::ServerSpec& spec : config.servers) {
        SIXG_ASSERT(c.lane < spec.batching.lanes,
                    "class lane exceeds a server's configured lane count");
      }
      cum += c.share / total_share;
      engine.class_cum.push_back(cum);
      engine.class_slo.push_back(c.slo.is_zero() ? config.slo : c.slo);
      engine.class_deadline.push_back(
          c.deadline.is_zero() ? config.resilience.deadline : c.deadline);
      engine.class_lane.push_back(c.lane);
      engine.class_shed.push_back(c.shed_queue_depth);
    }
    // Pin the top of the cumulative table: FP rounding must never leave
    // a u just under 1.0 without a class.
    engine.class_cum.back() = 1.0;
  }

  // Fault schedule. Config-gated: with no faults no plan is generated,
  // no event armed and no RNG drawn — the run stays byte-identical to a
  // build without the feature.
  // The fleet's documented FaultConfig defaults (fleet.hpp) apply BEFORE
  // the activity check, so a rate-only config — servers and horizon left
  // zero — is active, not silently cold.
  faults::FaultConfig fc = config.faults;
  if (fc.servers == 0) fc.servers = std::uint32_t(engine.servers.size());
  if (fc.horizon.is_zero()) {
    // Default horizon: the nominal arrival span plus slack for the
    // drain tail.
    fc.horizon = Duration::from_seconds_f(
        1.25 * double(config.requests) / config.arrivals_per_second);
  }
  if (fc.any()) {
    engine.fault_plan = faults::FaultPlan::generate(fc, config.seed);
    FleetEngine* owner = &engine;
    faults::FaultInjector::Hooks hooks;
    hooks.server_down = [owner](std::uint32_t s, Duration) {
      if (s < owner->servers.size() &&
          owner->servers[s].server->health() != ServerHealth::kDown)
        owner->servers[s].server->fail();
    };
    hooks.server_up = [owner](std::uint32_t s) {
      if (s < owner->servers.size() &&
          owner->servers[s].server->health() != ServerHealth::kUp)
        owner->servers[s].server->recover();
    };
    hooks.straggle_begin = [owner](std::uint32_t s, double factor) {
      if (s < owner->servers.size())
        owner->servers[s].server->set_service_rate_multiplier(factor);
    };
    hooks.straggle_end = [owner](std::uint32_t s) {
      if (s < owner->servers.size())
        owner->servers[s].server->set_service_rate_multiplier(1.0);
    };
    hooks.radio_down = [owner](Duration outage) {
      const TimePoint until = owner->sim.now() + outage;
      if (until > owner->radio_down_until) owner->radio_down_until = until;
    };
    // Link fail/restore events have no fleet-level meaning (the fleet
    // models its network as NetLeg samplers, not topo links); scenarios
    // that mutate a topo::Network arm their own injector for those.
    engine.injector.arm(engine.sim, engine.fault_plan, std::move(hooks));
  }

  engine.sim.schedule_at(TimePoint{} + engine.next_interarrival(),
                         FleetArrivalEvent{&engine});

  // Observability sampler: rides the engine's own timeline, reads only
  // this engine's state, and is stopped by the engine's last slot
  // release — see the member comment for why this keeps the report
  // digest byte-identical.
  if (obs::kProbesCompiled && obs::metrics_on()) {
    const Duration every = obs::Runtime::instance().sample_every();
    if (every > Duration{}) {
      obs::PeriodicSampler::Config sampler_cfg;
      sampler_cfg.every = every;
      engine.sampler = std::make_unique<obs::PeriodicSampler>(
          engine.sim, sampler_cfg, config.seed, engine.self);
      FleetEngine* e = &engine;
      engine.sampler->add_series("fleet.queue_depth", [e] {
        double total = 0.0;
        for (const auto& s : e->servers) total += double(e->load_of(s));
        return total;
      });
      engine.sampler->add_series("fleet.inflight",
                                 [e] { return double(e->inflight); });
      engine.sampler->add_series("fleet.slo_attainment", [e] {
        const std::uint64_t n = e->report.e2e_ms.count();
        return n == 0 ? 1.0 : double(e->report.within_slo) / double(n);
      });
      for (std::uint32_t k = 0; k < engine.servers.size(); ++k) {
        engine.sampler->add_series(
            "server" + std::to_string(k) + ".queue_depth",
            [e, k] { return double(e->load_of(e->servers[k])); });
      }
      engine.sampler->start();
    }
  }
}

/// Append the engine's per-server rows to `report` and fold its request
/// counters in. `prefix` namespaces the rows in a multi-pod report
/// ("pod3/edge-0"); empty in the serial path.
void collect_servers(const FleetEngine& engine, FleetStudy::Report& report,
                     const char* prefix) {
  for (std::uint32_t k = 0; k < engine.servers.size(); ++k) {
    const FleetEngine::ServerState& state = engine.servers[k];
    FleetStudy::ServerStats stats;
    stats.name = prefix;
    if (state.spec->name.empty()) {
      char buf[48];
      std::snprintf(buf, sizeof buf, "%s-%u", to_string(state.spec->tier), k);
      stats.name += buf;
    } else {
      stats.name += state.spec->name;
    }
    stats.tier = state.spec->tier;
    stats.dispatched = state.dispatched;
    stats.completed = state.server->completed();
    stats.dropped = state.server->dropped();
    stats.lost = state.server->lost_to_crashes();
    stats.rejected = state.server->rejected_unhealthy();
    stats.batches = state.server->batches_launched();
    stats.mean_batch_size = state.server->mean_batch_size();
    stats.queue_ms = state.queue_ms;
    report.servers.push_back(std::move(stats));
    report.completed += state.server->completed();
    report.dropped += state.server->dropped();
    report.lost_to_crashes += state.server->lost_to_crashes();
    report.batches += state.server->batches_launched();
    // Serving counters are published once per run from the existing
    // server accessors — the slab submit/complete path itself carries
    // zero probe instructions.
    SIXG_OBS_COUNT(obs::Metric::kServeSubmitted, state.server->submitted());
    SIXG_OBS_COUNT(obs::Metric::kServeCompleted, state.server->completed());
    SIXG_OBS_COUNT(obs::Metric::kServeDropped, state.server->dropped());
    SIXG_OBS_COUNT(obs::Metric::kServeBatches,
                   state.server->batches_launched());
  }
}

void check_config(const FleetStudy::Config& config) {
  SIXG_ASSERT(!config.servers.empty(), "a fleet needs at least one server");
  SIXG_ASSERT(config.arrivals_per_second > 0.0,
              "arrival rate must be positive");
  SIXG_ASSERT(config.requests >= 1, "need at least one request");
}

void init_streaming_report(FleetStudy::Report& report,
                           const FleetStudy::Config& config,
                           std::uint64_t reservoir_salt) {
  // The quantile reservoir draws from its own seed-derived stream (and
  // only once past the cap), so it can never shift the serving draws.
  report.e2e_q =
      stats::ReservoirQuantile{stats::ReservoirQuantile::kDefaultCap,
                               derive_seed(config.seed, reservoir_salt)};
  report.e2e_hist.emplace(0.0, kE2eHistHiMs, kE2eHistBins);
  report.classes.resize(config.classes.size());
  for (std::size_t c = 0; c < config.classes.size(); ++c) {
    report.classes[c].name = config.classes[c].name;
  }
}

/// Publish the end-of-run e2e distribution to the obs runtime.
void publish_fleet_distribution(const FleetStudy::Report& report,
                                std::uint64_t key) {
  if (!(obs::kProbesCompiled && obs::metrics_on())) return;
  obs::Distribution dist;
  dist.name = "fleet.e2e_ms";
  dist.key = key;
  dist.hist = *report.e2e_hist;
  dist.quantiles = report.e2e_q;
  obs::Runtime::instance().publish_distribution(std::move(dist));
}

}  // namespace

void detail::run_serial(const FleetStudy::Config& config,
                        const StreamSalts& salts, FleetStudy::Report& report,
                        std::vector<double>* e2e_samples_ms) {
  check_config(config);
  init_streaming_report(report, config, salts.reservoir);

  netsim::Simulator sim(config.seed);
  FleetEngine engine{config, sim, report, salts};
  engine.e2e_samples = e2e_samples_ms;
  setup_engine(engine, config);
  sim.run();

  if (engine.sampler) engine.sampler->publish();
  publish_fleet_distribution(report, config.seed);
  collect_servers(engine, report, "");
  if (report.completed > 0) {
    engine.energy_sum /= double(report.completed);
    report.mean_energy = engine.energy_sum;
  }
  report.fault_events = engine.injector.fired();
  const double makespan_sec = (engine.makespan - TimePoint{}).sec();
  if (makespan_sec > 0.0) {
    report.throughput_per_s = double(report.completed) / makespan_sec;
    report.goodput_per_s = double(report.within_slo) / makespan_sec;
  }
}

FleetStudy::Report FleetStudy::run(const Config& config) {
  Report report;
  detail::run_serial(config, kFleetSalts, report, nullptr);
  return report;
}

ShardedFleetStudy::Report ShardedFleetStudy::run(const Config& config) {
  check_config(config.shard);
  SIXG_ASSERT(config.shards >= 1, "a sharded fleet needs at least one shard");
  const bool remote_possible =
      config.shards > 1 && config.remote_fraction > 0.0;
  SIXG_ASSERT(!remote_possible ||
                  (static_cast<bool>(config.remote_uplink) &&
                   static_cast<bool>(config.remote_downlink)),
              "remote traffic needs both inter-pod samplers");
  SIXG_ASSERT(std::uint64_t(config.shards) < kHedgeTag,
              "shard count collides with the hedge payload tag");

  netsim::ShardedSimulator::Config kernel_cfg;
  kernel_cfg.shards = config.shards;
  kernel_cfg.window = config.window;
  kernel_cfg.seed = config.shard.seed;
  kernel_cfg.workers = config.workers;
  netsim::ShardedSimulator kernel(kernel_cfg);

  // Per-shard engines: each a full FleetStudy on its own timeline, seed
  // rebased per shard (shard 0 keeps the base seed).
  std::vector<FleetStudy::Config> shard_configs(config.shards, config.shard);
  std::vector<FleetStudy::Report> shard_reports(config.shards);
  std::vector<std::unique_ptr<FleetEngine>> engines;
  std::vector<FleetEngine*> peers(config.shards, nullptr);
  engines.reserve(config.shards);
  for (std::uint32_t k = 0; k < config.shards; ++k) {
    shard_configs[k].seed = netsim::shard_seed(config.shard.seed, k);
    init_streaming_report(shard_reports[k], shard_configs[k],
                          kFleetSalts.reservoir);
    engines.push_back(std::make_unique<FleetEngine>(
        shard_configs[k], kernel.shard(k), shard_reports[k], kFleetSalts));
    peers[k] = engines.back().get();
  }
  for (std::uint32_t k = 0; k < config.shards; ++k) {
    FleetEngine& engine = *engines[k];
    engine.sharded = &kernel;
    engine.peers = peers.data();
    engine.self = k;
    engine.shard_count = config.shards;
    engine.remote_fraction = remote_possible ? config.remote_fraction : 0.0;
    engine.remote_uplink = &config.remote_uplink;
    engine.remote_downlink = &config.remote_downlink;
    engine.window = config.window;
    setup_engine(engine, shard_configs[k]);
  }

  kernel.run();

  // Publish per-shard sampler series in fixed shard order (each is
  // labeled by its shard index, so the export is worker-count
  // invariant).
  for (auto& eng : engines) {
    if (eng->sampler) eng->sampler->publish();
  }

  // Merge in fixed shard order — deterministic regardless of which
  // worker ran what. Shard 0's streaming report is the base, so a
  // 1-shard merge is the identity.
  Report report;
  static_cast<FleetStudy::Report&>(report) = std::move(shard_reports[0]);
  for (std::uint32_t k = 1; k < config.shards; ++k) {
    const FleetStudy::Report& r = shard_reports[k];
    report.e2e_ms.merge(r.e2e_ms);
    report.e2e_q.merge(r.e2e_q);
    report.network_ms.merge(r.network_ms);
    report.queue_ms.merge(r.queue_ms);
    report.service_ms.merge(r.service_ms);
    report.batch_size.merge(r.batch_size);
    report.e2e_hist->merge(*r.e2e_hist);
    report.within_slo += r.within_slo;
    report.timed_out += r.timed_out;
    report.retries += r.retries;
    report.hedges += r.hedges;
    report.hedge_wins += r.hedge_wins;
    report.shed += r.shed;
    report.failed += r.failed;
    // Class lists are index-aligned: every shard runs the same class
    // spec, so the merge is elementwise.
    SIXG_ASSERT(report.classes.size() == r.classes.size(),
                "shard reports disagree on the class list");
    for (std::size_t c = 0; c < report.classes.size(); ++c) {
      FleetStudy::Report::ClassStats& into = report.classes[c];
      const FleetStudy::Report::ClassStats& from = r.classes[c];
      into.offered += from.offered;
      into.delivered += from.delivered;
      into.within_slo += from.within_slo;
      into.shed += from.shed;
      into.dropped_queue_full += from.dropped_queue_full;
      into.timed_out += from.timed_out;
      into.failed += from.failed;
      into.e2e_ms.merge(from.e2e_ms);
    }
  }
  EnergyBreakdown energy_sum;
  TimePoint makespan;
  for (std::uint32_t k = 0; k < config.shards; ++k) {
    char prefix[16] = "";
    if (config.shards > 1) std::snprintf(prefix, sizeof prefix, "pod%u/", k);
    collect_servers(*engines[k], report, prefix);
    energy_sum += engines[k]->energy_sum;
    if (engines[k]->makespan > makespan) makespan = engines[k]->makespan;
    report.remote_requests += engines[k]->remote_sent;
    report.fault_events += engines[k]->injector.fired();
  }
  if (report.completed > 0) {
    energy_sum /= double(report.completed);
    report.mean_energy = energy_sum;
  }
  const double makespan_sec = (makespan - TimePoint{}).sec();
  if (makespan_sec > 0.0) {
    report.throughput_per_s = double(report.completed) / makespan_sec;
    report.goodput_per_s = double(report.within_slo) / makespan_sec;
  }
  report.shards = config.shards;
  report.windows = kernel.windows();
  report.mailbox_messages = kernel.messages();
  publish_fleet_distribution(report, config.shard.seed);
  return report;
}

namespace {

/// FNV-1a over a fixed serialization of the report fields.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void byte(unsigned char c) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  void u64(std::uint64_t v) {
    for (unsigned i = 0; i < 8; ++i) byte((v >> (8 * i)) & 0xff);
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    for (const char c : s) byte(static_cast<unsigned char>(c));
    u64(s.size());
  }
  void summary(const stats::Summary& s) {
    u64(s.count());
    f64(s.mean());
    f64(s.variance());
    f64(s.min());
    f64(s.max());
  }
};

}  // namespace

std::uint64_t fleet_report_digest(const FleetStudy::Report& r) {
  Digest d;
  d.summary(r.e2e_ms);
  d.summary(r.network_ms);
  d.summary(r.queue_ms);
  d.summary(r.service_ms);
  d.summary(r.batch_size);
  d.u64(r.e2e_q.count());
  for (const double q : {0.25, 0.5, 0.9, 0.95, 0.99, 0.999}) {
    d.f64(r.e2e_q.quantile(q));
  }
  if (r.e2e_hist.has_value()) {
    d.u64(r.e2e_hist->count());
    d.u64(r.e2e_hist->underflow());
    d.u64(r.e2e_hist->overflow());
    for (std::size_t i = 0; i < r.e2e_hist->bin_count(); ++i) {
      d.u64(r.e2e_hist->bin(i));
    }
  }
  d.u64(r.completed);
  d.u64(r.dropped);
  d.u64(r.batches);
  d.u64(r.within_slo);
  d.u64(r.timed_out);
  d.u64(r.retries);
  d.u64(r.hedges);
  d.u64(r.hedge_wins);
  d.u64(r.shed);
  d.u64(r.lost_to_crashes);
  d.u64(r.failed);
  d.u64(r.fault_events);
  d.f64(r.throughput_per_s);
  d.f64(r.goodput_per_s);
  d.f64(r.mean_energy.uplink_j);
  d.f64(r.mean_energy.downlink_j);
  d.f64(r.mean_energy.wait_j);
  d.f64(r.mean_energy.device_compute_j);
  d.f64(r.mean_energy.server_compute_j);
  for (const FleetStudy::ServerStats& s : r.servers) {
    d.str(s.name);
    d.u64(static_cast<std::uint64_t>(s.tier));
    d.u64(s.dispatched);
    d.u64(s.completed);
    d.u64(s.dropped);
    d.u64(s.lost);
    d.u64(s.rejected);
    d.u64(s.batches);
    d.f64(s.mean_batch_size);
    d.summary(s.queue_ms);
  }
  // Class rows LAST, so a classless report digests exactly as before
  // the feature existed (the loop body never runs on an empty list).
  for (const FleetStudy::Report::ClassStats& c : r.classes) {
    d.str(c.name);
    d.u64(c.offered);
    d.u64(c.delivered);
    d.u64(c.within_slo);
    d.u64(c.shed);
    d.u64(c.dropped_queue_full);
    d.u64(c.timed_out);
    d.u64(c.failed);
    d.summary(c.e2e_ms);
  }
  return d.h;
}

}  // namespace sixg::edgeai
