/// @file accelerator.hpp — inference accelerator profiles and the
/// event-driven accelerator server: a bounded request queue drained with
/// dynamic batching (batch window + max batch size) on the netsim kernel.
///
/// The server has one submission path: submit(slot) carries a caller-side
/// index through a preallocated ring queue and set_completion_sink()
/// reports completions through ONE per-server callback, so steady-state
/// serving performs zero heap allocations per request. A caller that
/// wants per-request closures keeps them in its own table, keyed by slot.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "common/units.hpp"
#include "edgeai/model.hpp"
#include "netsim/simulator.hpp"

namespace sixg::edgeai {

/// Analytic profile of one inference accelerator class. Service time is
/// the roofline estimate: batch compute over sustained throughput, plus a
/// per-batch dispatch overhead (kernel launch, scheduling, PCIe).
struct AcceleratorProfile {
  std::string name;
  double peak_gflops = 1000.0;  ///< dense peak throughput
  double utilization = 0.5;     ///< sustained fraction of peak, (0,1]
  DataSize memory;              ///< model memory budget
  Duration dispatch_overhead;   ///< per-batch launch + scheduling cost
  double idle_watts = 1.0;      ///< powered-on floor
  double peak_watts = 10.0;     ///< draw while executing a batch

  /// Smartphone NPU: the device tier of the offload decision.
  [[nodiscard]] static AcceleratorProfile device_npu();
  /// Single edge-site inference GPU (the paper's edge UPF co-location).
  [[nodiscard]] static AcceleratorProfile edge_gpu();
  /// Datacenter training/inference GPU behind the WAN detour.
  [[nodiscard]] static AcceleratorProfile cloud_gpu();

  /// Can the model's weights be resident on this accelerator at all?
  [[nodiscard]] bool fits(const ModelProfile& model) const {
    return model.weights <= memory;
  }

  /// Execution time of one batch of `batch` requests of `model`.
  [[nodiscard]] Duration service_time(const ModelProfile& model,
                                      std::uint32_t batch) const;

  /// Energy of one batch: busy power (idle floor plus the utilised share
  /// of the dynamic range) integrated over the service time.
  [[nodiscard]] double batch_joules(const ModelProfile& model,
                                    std::uint32_t batch) const;
};

/// Server health: the crash/drain/recover state machine of the fault
/// model (docs/ARCHITECTURE.md "Fault model & failure-aware dispatch").
/// kUp accepts and serves; kDraining serves what is queued but rejects
/// new submissions; kDown holds nothing — fail() lost it all.
enum class ServerHealth : std::uint8_t { kUp, kDraining, kDown };

[[nodiscard]] const char* to_string(ServerHealth health);

/// Event-driven inference server bound to one netsim::Simulator timeline.
///
/// Requests enter a bounded FIFO queue. The server drains it with
/// *dynamic batching*: a batch launches immediately once `max_batch`
/// requests wait, otherwise a batch window (armed by the first waiting
/// request) expires and launches whatever has accumulated. While a batch
/// executes, arrivals queue; completion re-evaluates the same rules, so
/// the server is work-conserving up to the window.
///
/// With BatchingConfig::continuous the server instead re-forms the next
/// batch at every completion directly from the lane rings (iteration-
/// level scheduling, the vLLM/Orca regime): no window is ever armed, a
/// lone request on an idle server launches as a batch of one, and batch
/// sizes grow with load. Priority lanes (BatchingConfig::lanes) order
/// batch formation — lane 0 drains first — in both modes.
///
/// Determinism: all scheduling goes through the simulator's FIFO
/// event queue; no wall clock, no RNG. Same submissions -> same batches.
/// Fault hooks (fail/recover/drain, the service-rate multiplier) are
/// themselves scheduled as ordinary events by the caller, so a faulted
/// run stays a pure function of its seed.
class AcceleratorServer {
 public:
  /// Hard bound on priority lanes: the lane rings are preallocated at
  /// construction and the per-lane cursors live in fixed arrays, so the
  /// per-request path never allocates whatever the lane count.
  static constexpr std::uint32_t kMaxLanes = 4;

  struct BatchingConfig {
    std::uint32_t max_batch = 8;  ///< launch as soon as this many wait
    /// Max *gathering* wait before a sub-max batch launches (0 = none).
    /// The window arms whenever the server becomes free with a non-full
    /// queue — including right after a completion, Triton-style — so it
    /// bounds the fill wait from the moment a request could have been
    /// scheduled, not its total queue time behind in-flight batches.
    /// Ignored in continuous mode (see below): the window timer is never
    /// armed there.
    Duration batch_window;
    /// Beyond this, submissions drop. Each lane's ring is preallocated
    /// to this many entries (the bound is PER LANE), so pick the real
    /// bound, not "infinity".
    std::size_t queue_capacity = 256;
    /// Iteration-level (continuous) scheduling: every time the server is
    /// free with work queued — on submit to an idle server and at every
    /// batch completion — the next batch forms immediately from whatever
    /// waits, up to max_batch. No window is ever armed, so batches grow
    /// with load instead of idling the accelerator between windows.
    /// False keeps the classic window+max-batch scheme bit-identical.
    bool continuous = false;
    /// Priority lanes, 1..kMaxLanes. Lane 0 is the highest priority:
    /// batch formation drains lanes in index order, so queued
    /// lower-priority work is preempted by lane (never mid-batch — a
    /// launched batch always runs to completion). 1 = the classic single
    /// FIFO, bit-identical to the pre-lane server.
    std::uint32_t lanes = 1;
  };

  /// Per-request completion record.
  struct Completion {
    std::uint64_t request_id = 0;
    TimePoint submitted;       ///< queue entry time
    TimePoint started;         ///< batch launch time
    TimePoint done;            ///< batch completion time
    std::uint32_t batch_size = 0;  ///< size of the batch it rode in

    [[nodiscard]] Duration queue_wait() const { return started - submitted; }
    [[nodiscard]] Duration service() const { return done - started; }
    [[nodiscard]] Duration total() const { return done - submitted; }
  };
  /// Completion callback, one per server: fires once per request in
  /// FIFO order as its batch completes. `slot` and `payload` echo the
  /// submit(slot, payload) call; Completion::request_id is the slot.
  using CompletionSink =
      std::function<void(std::uint32_t slot, std::uint64_t payload,
                         const Completion& completion)>;
  /// Crash-loss callback, one per server: fail() invokes it once per
  /// request that was queued or mid-batch when the server went down (FIFO
  /// order: the in-flight batch first, then the queue). The owner
  /// reclaims the slot — and, when failure-aware dispatch is on, decides
  /// whether to retry elsewhere.
  using FailureSink =
      std::function<void(std::uint32_t slot, std::uint64_t payload)>;

  AcceleratorServer(netsim::Simulator& sim, AcceleratorProfile accelerator,
                    ModelProfile model, BatchingConfig config);

  AcceleratorServer(const AcceleratorServer&) = delete;
  AcceleratorServer& operator=(const AcceleratorServer&) = delete;

  /// Install the per-server completion callback. Must be set (once,
  /// before the first submit) and never per request.
  void set_completion_sink(CompletionSink sink);

  /// Install the crash-loss callback. Optional: without one, fail() on a
  /// server with queued or in-flight work is a programming error (the
  /// owner could never reclaim the slots).
  void set_failure_sink(FailureSink sink);

  // -- fault model ----------------------------------------------------------
  /// Crash: everything queued and the batch in flight are LOST. Each lost
  /// request is reported through the failure sink; the pending
  /// batch-completion event is disarmed by a crash-epoch check (its
  /// results never surface). The server rejects submissions until
  /// recover(). No-op counters keep advancing deterministically.
  [[gnu::cold]] void fail();
  /// Repair: back to kUp, empty. Queued work rejected while down stays
  /// rejected — the dispatch layer owns retries.
  [[gnu::cold]] void recover();
  /// Stop accepting new work but finish everything already queued (the
  /// graceful half of the state machine; recover() reopens).
  [[gnu::cold]] void drain();
  [[nodiscard]] ServerHealth health() const { return health_; }
  /// Is this server a valid dispatch target right now?
  [[nodiscard]] bool accepting() const { return health_ == ServerHealth::kUp; }

  /// Straggler knob: service times are multiplied by `factor` (> 1 =
  /// slower) for batches launched while it is set. Exactly 1.0 (the
  /// default) leaves the service-time computation bit-identical to a
  /// build without the knob.
  void set_service_rate_multiplier(double factor);
  [[nodiscard]] double service_rate_multiplier() const {
    return slowdown_;
  }

  /// Enqueue caller-side record `slot` at sim.now(), carrying an opaque
  /// `payload` word back to the completion sink. Returns false (and
  /// counts a drop) when the lane's queue is at capacity; the sink then
  /// never fires for this slot. Allocation-free. `lane` picks the
  /// priority lane (< batching().lanes; 0 = highest priority).
  bool submit(std::uint32_t slot, std::uint64_t payload = 0,
              std::uint32_t lane = 0);

  // -- introspection --------------------------------------------------------
  [[nodiscard]] const AcceleratorProfile& accelerator() const { return acc_; }
  [[nodiscard]] const ModelProfile& model() const { return model_; }
  [[nodiscard]] const BatchingConfig& batching() const { return config_; }
  /// Total queued across all lanes.
  [[nodiscard]] std::size_t queue_depth() const { return count_; }
  /// Queued in one lane.
  [[nodiscard]] std::size_t queue_depth(std::uint32_t lane) const {
    return lane_count_[lane];
  }
  [[nodiscard]] bool busy() const { return busy_; }
  /// Requests in the batch currently executing (0 when idle): together
  /// with queue_depth() this is the load a dispatch policy sees.
  [[nodiscard]] std::uint32_t in_service() const { return in_service_; }
  [[nodiscard]] std::uint64_t submitted() const { return submitted_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Queue-full drops charged to one lane (sums to dropped() over
  /// lanes): overload attribution distinct from policy sheds, which the
  /// dispatch layer counts before submit() is ever reached.
  [[nodiscard]] std::uint64_t dropped_queue_full(std::uint32_t lane) const {
    return lane_dropped_[lane];
  }
  [[nodiscard]] std::uint64_t batches_launched() const { return batches_; }
  /// Requests lost to fail() (queued + mid-batch).
  [[nodiscard]] std::uint64_t lost_to_crashes() const { return lost_; }
  /// Submissions rejected because the server was draining or down.
  [[nodiscard]] std::uint64_t rejected_unhealthy() const { return rejected_; }

  /// Mean size of the batches launched so far (0 before any launch).
  [[nodiscard]] double mean_batch_size() const {
    return batches_ == 0 ? 0.0 : double(completed_in_batches_) / double(batches_);
  }

 private:
  /// One queued request. Trivially copyable on purpose: ring and scratch
  /// moves are plain stores.
  struct Entry {
    std::uint64_t payload = 0;  ///< opaque caller word
    TimePoint submitted;
    std::uint32_t slot = 0;
  };

  /// Re-evaluate the batching rules; only meaningful when idle.
  void maybe_dispatch();
  void launch_batch();
  /// Staged completion: report each request to the sink FIFO, then drain.
  /// `epoch` is the crash epoch the batch launched under; a mismatch
  /// means the server failed mid-service and the results are void.
  void finish_batch(TimePoint started, std::uint32_t offset, std::uint32_t n,
                    std::uint32_t epoch);
  /// Account one request lost to fail() and notify its owner.
  [[gnu::cold]] void lose(const Entry& entry);

  netsim::Simulator& sim_;
  AcceleratorProfile acc_;
  ModelProfile model_;
  BatchingConfig config_;

  /// Bounded FIFO rings, one queue_capacity segment per lane (lane L
  /// occupies [L * queue_capacity, (L+1) * queue_capacity)), all
  /// preallocated at construction. count_ is the total across lanes —
  /// the load a dispatch policy sees.
  std::vector<Entry> ring_;
  std::array<std::uint32_t, kMaxLanes> lane_head_{};
  std::array<std::uint32_t, kMaxLanes> lane_count_{};
  std::size_t count_ = 0;

  /// Batch scratch ring: two max_batch regions used alternately, so a
  /// batch launched from inside a completion callback (the server is
  /// already free then) cannot overwrite the batch still being reported.
  std::vector<Entry> scratch_;
  std::uint32_t scratch_parity_ = 0;

  CompletionSink sink_;
  FailureSink failure_sink_;

  bool busy_ = false;
  std::uint32_t in_service_ = 0;
  /// Scratch offset of the batch in flight (valid while busy_): fail()
  /// walks it to report the mid-batch losses.
  std::uint32_t inflight_offset_ = 0;
  /// Armed batch window, if any; cancelled when a batch launches first.
  netsim::Simulator::TimerHandle window_timer_;

  ServerHealth health_ = ServerHealth::kUp;
  /// Bumped by fail(): the pending finish_batch event carries the epoch
  /// it launched under and no-ops on mismatch, so a crashed batch can
  /// never deliver results.
  std::uint32_t crash_epoch_ = 0;
  double slowdown_ = 1.0;

  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t dropped_ = 0;
  /// Per-lane queue-full attribution; sums to dropped_.
  std::array<std::uint64_t, kMaxLanes> lane_dropped_{};
  std::uint64_t batches_ = 0;
  std::uint64_t completed_in_batches_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace sixg::edgeai
