/// @file fleet.hpp — fleet-scale inference serving: one open request
/// stream dispatched across N heterogeneous AcceleratorServers
/// (device/edge/cloud tiers) on a single simulator timeline. This is the
/// "many users contending for a small pool of accelerators" regime of
/// Letaief et al. and Merluzzi et al., built directly on the request
/// slab: the engine streams its report (histogram + capped reservoir)
/// and chains arrivals, so a multi-million-request city run is O(slab +
/// bins) memory and allocation-free per request. It is the one serving
/// engine: ServingStudy (serving.hpp) is a one-server run of it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "edgeai/accelerator.hpp"
#include "edgeai/energy.hpp"
#include "edgeai/model.hpp"
#include "edgeai/net_leg.hpp"
#include "edgeai/offload.hpp"
#include "faults/fault_plan.hpp"
#include "stats/histogram.hpp"
#include "stats/reservoir.hpp"
#include "stats/summary.hpp"

namespace sixg::edgeai {

/// How an arriving request picks its server.
enum class DispatchPolicy : std::uint8_t {
  kRoundRobin,         ///< rotate through the fleet, load-blind
  kJoinShortestQueue,  ///< least queued+executing work; ties -> lowest index
  /// Prefer the lowest-latency tier (edge, then cloud, then device):
  /// join-shortest-queue within the preferred tier, spilling to the next
  /// tier once every server there has at least 16 requests queued or
  /// executing (`kTierSpillDepth` in fleet.cpp).
  kTierAffine,
};

[[nodiscard]] const char* to_string(DispatchPolicy policy);

/// Failure-aware dispatch knobs. Everything defaults OFF: with the
/// defaults (and no fault schedule) the engine arms no timers, draws no
/// extra RNG and runs byte-identically to a build without the feature —
/// that is the zero-fault determinism gate of bench/faults.cpp.
struct ResilienceConfig {
  /// Per-request end-to-end deadline, armed at arrival as a cancellable
  /// one-shot on the kernel's timer wheel. Expiry is terminal (the
  /// request counts as timed out even if a copy completes later).
  /// Zero = no timeouts.
  Duration deadline;
  /// Re-dispatch budget per request. A copy lost to a queue drop, a
  /// crash, an unhealthy rejection or a remote drop is retried while
  /// budget remains; dispatch is health-aware, so the retry fails over
  /// to a live server. Zero = failures are terminal.
  std::uint32_t max_retries = 0;
  /// Backoff before retry k: retry_backoff * 2^(k-1) — deterministic,
  /// jitter-free (the determinism contract forbids extra RNG draws).
  /// Zero = retry immediately.
  Duration retry_backoff;
  /// Arm a hedged duplicate this long after dispatch; first completion
  /// wins, the loser is discarded on arrival (lazy cancellation).
  /// Zero = no hedging.
  Duration hedge_delay;
  /// Shed an arrival outright when total fleet load (queued + in
  /// service) is at or above this. Zero = never shed.
  std::uint32_t shed_queue_depth = 0;

  [[nodiscard]] bool any() const {
    return !deadline.is_zero() || max_retries > 0 || !hedge_delay.is_zero() ||
           shed_queue_depth > 0;
  }
};

/// Trace-style modulation of the Poisson arrival process: a diurnal
/// curve plus periodic flash-crowd bursts, layered on chained-arrival
/// generation by scaling each interarrival draw with the instantaneous
/// rate multiplier. Inactive by default (multiplier identically 1), in
/// which case the draw passes through untouched and the run stays
/// byte-identical to a build without the feature.
///
/// The diurnal curve is a piecewise-linear triangle wave — trough (1 -
/// amplitude) at phase 0, peak (1 + amplitude) at half period — on
/// purpose: it needs no libm, so the modulated trajectory is exactly
/// reproducible everywhere the unmodulated one is. Flash crowds multiply
/// the rate by `flash_multiplier` for `flash_duration` at the start of
/// every `flash_every` interval.
struct ArrivalShape {
  double diurnal_amplitude = 0.0;  ///< [0, 1); 0 disables the curve
  Duration diurnal_period;         ///< one simulated "day"
  double flash_multiplier = 1.0;   ///< >= 1; 1 disables the bursts
  Duration flash_every;            ///< burst cadence
  Duration flash_duration;         ///< burst length, < flash_every

  [[nodiscard]] bool active() const {
    return (diurnal_amplitude > 0.0 && !diurnal_period.is_zero()) ||
           (flash_multiplier != 1.0 && !flash_every.is_zero() &&
            !flash_duration.is_zero());
  }

  /// Instantaneous arrival-rate multiplier at `since_start` into the run.
  [[nodiscard]] double rate_multiplier(Duration since_start) const;
};

/// Runs one fleet-serving workload on one simulator timeline.
class FleetStudy {
 public:
  /// Opaque callables still convert into a NetLeg (the scalar-only kFn
  /// kind), so lambda-based configs compile unchanged.
  using DelaySampler = NetLeg::Fn;

  /// One server of the fleet. Network legs are per server (the hop to
  /// an edge site differs from the WAN detour to a cloud region); both
  /// set (offloaded: latency adds the hops, energy bills the radio) or
  /// both null (on-device tier). Structured legs (NetLeg::wired /
  /// radio_then_path / path_then_radio) ride the two-phase batch
  /// sampling lane; opaque callables sample scalar, bit-identically.
  /// When every networked server's legs draw identically
  /// (NetLeg::same_draws_as — the common "N identical edge GPUs behind
  /// one path" fleet), the engine serves them all from one pre-drawn
  /// block.
  struct ServerSpec {
    std::string name;  ///< row label; defaults to "tier-N" when empty
    AcceleratorProfile accelerator = AcceleratorProfile::edge_gpu();
    AcceleratorServer::BatchingConfig batching;
    ExecutionTier tier = ExecutionTier::kEdge;
    NetLeg uplink;
    NetLeg downlink;
  };

  /// One SLO class of the offered load (e.g. "interactive" / "batch").
  /// Classes give the scheduler its priority signal: each arrival draws
  /// its class from a dedicated seed-derived stream by normalized share,
  /// is admission-controlled by the class's shed bound, submits to the
  /// class's accelerator priority lane, and is scored against the
  /// class's own SLO.
  struct SloClassSpec {
    std::string name;
    /// Relative share of arrivals drawn into this class (normalized
    /// over the class list; need not sum to 1).
    double share = 1.0;
    /// Per-class latency SLO; zero inherits Config::slo.
    Duration slo;
    /// Per-class end-to-end deadline, terminal on expiry. A non-zero
    /// value arms a deadline timer on each request of the class even
    /// when ResilienceConfig::deadline is zero; zero inherits that
    /// default.
    Duration deadline;
    /// Accelerator priority lane this class submits to (0 = highest
    /// priority). Must be < every ServerSpec's batching.lanes.
    std::uint32_t lane = 0;
    /// Admission control: shed an arrival of this class outright when
    /// total fleet load (queued + in service) is at or above this —
    /// the per-class analogue of ResilienceConfig::shed_queue_depth
    /// (whichever bound is non-zero and tighter sheds first).
    /// Zero = this class is never shed by the class bound.
    std::uint32_t shed_queue_depth = 0;
  };

  struct Config {
    ModelProfile model = ModelZoo::at("det-base");
    std::vector<ServerSpec> servers;
    DispatchPolicy policy = DispatchPolicy::kJoinShortestQueue;
    double arrivals_per_second = 4000.0;  ///< Poisson open-loop city load
    std::uint32_t requests = 100000;
    InferenceEnergyModel::Config energy;
    /// Latency SLO the report scores attainment against (exact count,
    /// not a histogram read).
    Duration slo = Duration::from_millis_f(20.0);
    std::uint64_t seed = 1;

    /// Seed-derived fault schedule (docs/ARCHITECTURE.md "Fault model").
    /// Defaults to no faults. `servers` defaults to the fleet size and
    /// `horizon` to ~1.25x the nominal arrival span when left zero. In
    /// sharded runs each pod generates its own plan from its rebased
    /// shard seed, so pods fail independently and the schedule is
    /// worker-count invariant.
    faults::FaultConfig faults;
    /// Failure-aware dispatch policy; all-off by default.
    ResilienceConfig resilience;
    /// SLO service classes. Empty (the default) = one implicit class:
    /// the class stream is never drawn, every request rides lane 0, and
    /// the run is byte-identical to a build without the feature.
    std::vector<SloClassSpec> classes;
    /// Trace-style arrival modulation (diurnal curve + flash crowds);
    /// inactive by default. Arrivals are always chained, so the shape
    /// applies directly (no extra flag).
    ArrivalShape shape;
  };

  /// Per-server slice of the fleet report.
  struct ServerStats {
    std::string name;
    ExecutionTier tier = ExecutionTier::kEdge;
    std::uint64_t dispatched = 0;  ///< requests routed to this server
    std::uint64_t completed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t lost = 0;      ///< queued/in-flight work lost to crashes
    std::uint64_t rejected = 0;  ///< submissions refused while not up
    std::uint64_t batches = 0;
    double mean_batch_size = 0.0;
    stats::Summary queue_ms;  ///< queue wait of its completed requests
  };

  struct Report {
    stats::Summary e2e_ms;  ///< device-to-device, delivered requests
    /// End-to-end quantiles: exact order statistics up to
    /// ReservoirQuantile::kDefaultCap, reservoir-sampled beyond it (own
    /// RNG stream, seed-derived).
    stats::ReservoirQuantile e2e_q;
    stats::Summary network_ms;  ///< uplink + downlink + airtime share
    stats::Summary queue_ms;    ///< accelerator queue wait
    stats::Summary service_ms;  ///< batch execution share
    stats::Summary batch_size;  ///< batch each delivered request rode in
    /// Streaming end-to-end distribution: 500 bins over [0, 250) ms;
    /// engaged by run().
    std::optional<stats::Histogram> e2e_hist;

    std::uint64_t completed = 0;
    std::uint64_t dropped = 0;  ///< bounded-queue rejections
    std::uint64_t batches = 0;
    double throughput_per_s = 0.0;  ///< completed / makespan
    EnergyBreakdown mean_energy;  ///< per completed request

    // -- availability / goodput (fault model) -------------------------------
    /// Requests that hit their deadline before a result — terminal.
    std::uint64_t timed_out = 0;
    /// Re-dispatch attempts made (failover retries).
    std::uint64_t retries = 0;
    /// Hedged duplicates launched, and how many won their race.
    std::uint64_t hedges = 0;
    std::uint64_t hedge_wins = 0;
    /// Arrivals turned away by load shedding.
    std::uint64_t shed = 0;
    /// Submissions lost to server crashes (sum of per-server `lost`).
    std::uint64_t lost_to_crashes = 0;
    /// Terminal non-completions: sheds, timeouts, and requests whose
    /// last live copy failed (queue drop, crash loss, unhealthy
    /// rejection, remote drop notice) with no retry budget left. Equals
    /// `dropped` only when every drop is a request's only copy and
    /// nothing else fails: no sheds, deadlines, retries, hedges or
    /// faults.
    std::uint64_t failed = 0;
    /// Fault-plan entries the injector fired during the run.
    std::uint64_t fault_events = 0;
    /// Delivered results per second of makespan that also met the SLO.
    double goodput_per_s = 0.0;

    /// Delivered results over offered-and-settled requests. 1.0 when
    /// nothing failed (including the trivial empty run).
    [[nodiscard]] double availability() const {
      const std::uint64_t delivered = e2e_ms.count();
      const std::uint64_t settled = delivered + failed;
      return settled == 0 ? 1.0 : double(delivered) / double(settled);
    }

    /// Completed requests with e2e <= the scoring SLO, exactly counted.
    /// Without classes the scoring SLO is Config::slo; with classes each
    /// delivery is judged against its own class SLO.
    std::uint64_t within_slo = 0;
    /// within_slo over *settled* requests — delivered plus failed, the
    /// same denominator availability() uses — because a shed, timed-out
    /// or dropped request misses the SLO too. "Delivered" is the e2e
    /// sample count, not the per-server completion sum: each request
    /// records at most one result, so hedge losers (whose copies inflate
    /// the server sums) cannot double-count here. Pinned by
    /// tests/test_fleet.cpp (SloAttainmentCountsFailuresInDenominator).
    [[nodiscard]] double slo_attainment() const {
      const std::uint64_t settled = e2e_ms.count() + failed;
      return settled == 0 ? 0.0 : double(within_slo) / double(settled);
    }

    /// Per-class slice of the report; populated (in Config::classes
    /// order) only when classes are configured.
    struct ClassStats {
      std::string name;
      std::uint64_t offered = 0;     ///< arrivals drawn into this class
      std::uint64_t delivered = 0;   ///< results recorded
      std::uint64_t within_slo = 0;  ///< delivered within the class SLO
      std::uint64_t shed = 0;        ///< admission-control sheds
      /// Queue-full drop *events* charged to this class — attribution
      /// distinct from policy sheds. A retried copy can both drop and
      /// later deliver, so events can exceed terminal failures.
      std::uint64_t dropped_queue_full = 0;
      std::uint64_t timed_out = 0;  ///< class-deadline expiries, terminal
      std::uint64_t failed = 0;     ///< terminal non-completions
      stats::Summary e2e_ms;        ///< delivered end-to-end latency

      /// Class-level analogue of Report::slo_attainment().
      [[nodiscard]] double slo_attainment() const {
        const std::uint64_t settled = delivered + failed;
        return settled == 0 ? 0.0 : double(within_slo) / double(settled);
      }
    };
    std::vector<ClassStats> classes;

    std::vector<ServerStats> servers;
  };

  /// Pure function of the config (determinism contract): same config ->
  /// same report, independent of wall clock and thread count.
  [[nodiscard]] static Report run(const Config& config);
};

/// Fleet serving partitioned into spatial shards (edge pods), each a full
/// FleetStudy engine on its own netsim::Simulator timeline, executed by
/// netsim::ShardedSimulator in conservative windows. Each pod generates
/// its own slice of the city load; a configurable fraction of arrivals is
/// served by a *remote* pod, riding an inter-pod link through the
/// cross-shard mailboxes (submit there, result posted back — no shard
/// ever touches another shard's memory).
///
/// Determinism contract, extended: for a fixed shard count the report is
/// byte-identical at any worker-thread count, and a 1-shard run is
/// byte-identical to the serial FleetStudy::run of the same per-shard
/// config (shard 0 keeps the base seed; remote streams are never drawn
/// when there is no other shard to reach). tests/test_sharded.cpp pins
/// both properties.
class ShardedFleetStudy {
 public:
  struct Config {
    /// Per-shard workload template: every pod runs this config with its
    /// seed rebased to netsim::shard_seed(shard.seed, k). `requests` and
    /// `arrivals_per_second` are PER SHARD: total offered load scales
    /// with the shard count.
    FleetStudy::Config shard;
    std::uint32_t shards = 4;
    /// Worker threads for the sharded kernel; 0 = hardware concurrency.
    /// Never changes the report.
    unsigned workers = 0;
    /// Conservative window. Must not exceed the inter-pod latency floor
    /// (topo::CompiledPath::min_latency of the inter-pod path); the
    /// kernel asserts every cross-shard message against it.
    Duration window = Duration::millis(2);
    /// Fraction of arrivals served by a uniformly chosen remote pod
    /// (0 = fully partitioned city, shards never interact).
    double remote_fraction = 0.0;
    /// Inter-pod network legs for remote requests; both set or both
    /// null. Their latency floor must be >= `window`. The uplink leg is
    /// always drawn scalar (its stream interleaves with the remote coin
    /// and pod pick); the downlink leg batches when structured.
    NetLeg remote_uplink;
    NetLeg remote_downlink;
  };

  struct Report : FleetStudy::Report {
    std::uint64_t shards = 0;
    std::uint64_t windows = 0;           ///< conservative windows executed
    std::uint64_t remote_requests = 0;   ///< arrivals served by a remote pod
    std::uint64_t mailbox_messages = 0;  ///< cross-shard messages delivered
  };

  /// Pure function of the config: same config (including shard count) ->
  /// same report at any worker count.
  [[nodiscard]] static Report run(const Config& config);
};

namespace detail {

/// Seed salts of the serial engine's independent RNG streams. FleetStudy
/// and ServingStudy run the same engine; each keeps its own streams.
struct StreamSalts {
  std::uint64_t arrival;
  std::uint64_t uplink;
  std::uint64_t downlink;
  std::uint64_t reservoir;  ///< e2e quantile reservoir
};

/// One serial engine run on its own timeline: the body of FleetStudy::run
/// and ServingStudy::run. Fills the default-constructed `report`; a
/// non-null `e2e_samples_ms` also receives every delivered request's
/// end-to-end latency, in completion order.
void run_serial(const FleetStudy::Config& config, const StreamSalts& salts,
                FleetStudy::Report& report,
                std::vector<double>* e2e_samples_ms);

}  // namespace detail

/// Order-sensitive digest of every field of a fleet report (bit patterns
/// of the floats, exact counters, server rows). Two reports digest equal
/// iff they are byte-identical in all observable fields — the equivalence
/// oracle used by tests/test_sharded.cpp and bench/shard.cpp.
[[nodiscard]] std::uint64_t fleet_report_digest(const FleetStudy::Report& r);

}  // namespace sixg::edgeai
