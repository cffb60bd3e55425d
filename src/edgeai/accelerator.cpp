#include "edgeai/accelerator.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "obs/probe.hpp"

namespace sixg::edgeai {

AcceleratorProfile AcceleratorProfile::device_npu() {
  return AcceleratorProfile{.name = "device-NPU",
                            .peak_gflops = 4000.0,
                            .utilization = 0.35,
                            .memory = DataSize::megabytes(512),
                            .dispatch_overhead = Duration::micros(300),
                            .idle_watts = 0.3,
                            .peak_watts = 4.0};
}

AcceleratorProfile AcceleratorProfile::edge_gpu() {
  return AcceleratorProfile{.name = "edge-GPU",
                            .peak_gflops = 60000.0,
                            .utilization = 0.55,
                            .memory = DataSize::gigabytes(16),
                            .dispatch_overhead = Duration::micros(150),
                            .idle_watts = 40.0,
                            .peak_watts = 250.0};
}

AcceleratorProfile AcceleratorProfile::cloud_gpu() {
  return AcceleratorProfile{.name = "cloud-GPU",
                            .peak_gflops = 300000.0,
                            .utilization = 0.65,
                            .memory = DataSize::gigabytes(80),
                            .dispatch_overhead = Duration::micros(120),
                            .idle_watts = 80.0,
                            .peak_watts = 700.0};
}

Duration AcceleratorProfile::service_time(const ModelProfile& model,
                                          std::uint32_t batch) const {
  SIXG_ASSERT(batch >= 1, "batch size must be positive");
  const double sustained_gflops = peak_gflops * utilization;
  const double seconds = model.batch_gflops(batch) / sustained_gflops;
  return dispatch_overhead + Duration::from_seconds_f(seconds);
}

double AcceleratorProfile::batch_joules(const ModelProfile& model,
                                        std::uint32_t batch) const {
  const double busy_watts =
      idle_watts + (peak_watts - idle_watts) * utilization;
  return busy_watts * service_time(model, batch).sec();
}

AcceleratorServer::AcceleratorServer(netsim::Simulator& sim,
                                     AcceleratorProfile accelerator,
                                     ModelProfile model, BatchingConfig config)
    : sim_(sim),
      acc_(std::move(accelerator)),
      model_(std::move(model)),
      config_(config) {
  SIXG_ASSERT(config_.max_batch >= 1, "max_batch must be positive");
  SIXG_ASSERT(config_.queue_capacity >= 1, "queue capacity must be positive");
  SIXG_ASSERT(config_.queue_capacity <= (std::size_t{1} << 24),
              "queue_capacity is preallocated; bound it realistically");
  SIXG_ASSERT(!config_.batch_window.is_negative(),
              "batch window must be non-negative");
  SIXG_ASSERT(config_.lanes >= 1 && config_.lanes <= kMaxLanes,
              "lane count must be in [1, kMaxLanes]");
  SIXG_ASSERT(acc_.fits(model_), "model does not fit accelerator memory");
  ring_.resize(std::size_t{config_.lanes} * config_.queue_capacity);
  scratch_.resize(std::size_t{2} * config_.max_batch);
}

void AcceleratorServer::set_completion_sink(CompletionSink sink) {
  SIXG_ASSERT(static_cast<bool>(sink), "completion sink must be callable");
  sink_ = std::move(sink);
}

void AcceleratorServer::set_failure_sink(FailureSink sink) {
  SIXG_ASSERT(static_cast<bool>(sink), "failure sink must be callable");
  failure_sink_ = std::move(sink);
}

void AcceleratorServer::lose(const Entry& entry) {
  ++lost_;
  SIXG_ASSERT(static_cast<bool>(failure_sink_),
              "fail() with queued work needs set_failure_sink() first");
  failure_sink_(entry.slot, entry.payload);
}

void AcceleratorServer::fail() {
  SIXG_ASSERT(health_ != ServerHealth::kDown,
              "fail() on a server that is already down");
  health_ = ServerHealth::kDown;
  window_timer_.cancel();
  // Disarm the pending batch completion: finish_batch checks the epoch.
  ++crash_epoch_;
  // The in-flight batch is reported first (it entered service before
  // anything still queued), then the queue in FIFO order. Rejections of
  // resubmissions from inside the failure sink are guaranteed: health is
  // already kDown here.
  if (busy_) {
    for (std::uint32_t i = 0; i < in_service_; ++i) {
      lose(scratch_[inflight_offset_ + i]);
    }
    busy_ = false;
    in_service_ = 0;
  }
  for (std::uint32_t lane = 0; lane < config_.lanes; ++lane) {
    const std::size_t base = std::size_t{lane} * config_.queue_capacity;
    for (std::uint32_t i = 0; i < lane_count_[lane]; ++i) {
      lose(ring_[base + (lane_head_[lane] + i) % config_.queue_capacity]);
    }
    lane_head_[lane] = 0;
    lane_count_[lane] = 0;
  }
  count_ = 0;
}

void AcceleratorServer::recover() {
  SIXG_ASSERT(health_ != ServerHealth::kUp,
              "recover() on a server that is already up");
  health_ = ServerHealth::kUp;
}

void AcceleratorServer::set_service_rate_multiplier(double factor) {
  SIXG_ASSERT(factor > 0.0, "service-rate multiplier must be positive");
  slowdown_ = factor;
}

bool AcceleratorServer::submit(std::uint32_t slot, std::uint64_t payload,
                               std::uint32_t lane) {
  SIXG_ASSERT(static_cast<bool>(sink_),
              "submit needs set_completion_sink() first");
  SIXG_ASSERT(lane < config_.lanes, "lane out of range");
  if (health_ != ServerHealth::kUp) [[unlikely]] {
    ++rejected_;
    return false;
  }
  const std::size_t cap = config_.queue_capacity;
  if (lane_count_[lane] >= cap) {
    ++dropped_;
    ++lane_dropped_[lane];
    return false;
  }
  ++submitted_;
  // head < cap and count < cap here, so the tail index wraps with one
  // conditional subtract — no integer division on the per-submit path.
  std::size_t tail = lane_head_[lane] + std::size_t{lane_count_[lane]};
  if (tail >= cap) tail -= cap;
  ring_[std::size_t{lane} * cap + tail] = Entry{payload, sim_.now(), slot};
  ++lane_count_[lane];
  ++count_;
  if (!busy_) maybe_dispatch();
  return true;
}

void AcceleratorServer::maybe_dispatch() {
  SIXG_ASSERT(!busy_, "dispatch re-evaluated while a batch is in flight");
  if (count_ == 0) return;
  // Iteration-level scheduling: an idle server with work always launches
  // — on submit-to-idle and at every completion — so the batch re-forms
  // continuously and no window timer ever arms. One fused condition keeps
  // the window-mode hot path at a single (perfectly predicted) branch.
  if (config_.continuous || count_ >= config_.max_batch) {
    launch_batch();
    return;
  }
  if (window_timer_.active()) return;
  // First waiting request arms the window as a cancellable one-shot on
  // the kernel's timer wheel; a batch launched meanwhile (full batch,
  // completion drain) disarms it in O(1) instead of leaving a stale
  // no-op event behind.
  window_timer_ = sim_.schedule_once(config_.batch_window, [this] {
    if (!busy_ && count_ > 0) launch_batch();
  });
}

void AcceleratorServer::launch_batch() {
  SIXG_ASSERT(!busy_ && count_ > 0, "launch needs an idle server");
  // Any armed window is now moot.
  window_timer_.cancel();

  const auto n = std::uint32_t(
      std::min<std::size_t>(count_, config_.max_batch));
  SIXG_OBS_HIST(obs::Metric::kHistQueueDepth, count_);
  SIXG_OBS_HIST(obs::Metric::kHistBatchSize, n);
  const std::uint32_t offset = scratch_parity_ * config_.max_batch;
  scratch_parity_ ^= 1;
  // Fill lane-major: lane 0 drains completely before lane 1 contributes,
  // so queued low-priority work is preempted by whole lanes (never
  // mid-batch). Within a lane the order is FIFO; the cursor wraps with a
  // compare instead of a per-element modulo.
  const std::size_t cap = config_.queue_capacity;
  std::uint32_t filled = 0;
  for (std::uint32_t lane = 0; lane < config_.lanes && filled < n; ++lane) {
    const auto take = std::uint32_t(
        std::min<std::size_t>(lane_count_[lane], n - filled));
    const std::size_t base = std::size_t{lane} * cap;
    std::size_t idx = lane_head_[lane];
    for (std::uint32_t i = 0; i < take; ++i) {
      scratch_[offset + filled + i] = ring_[base + idx];
      if (++idx == cap) idx = 0;
    }
    lane_head_[lane] = std::uint32_t(idx);
    lane_count_[lane] -= take;
    filled += take;
  }
  SIXG_ASSERT(filled == n, "lane rings must cover the batch");
  count_ -= n;
  ++batches_;
  completed_in_batches_ += n;
  busy_ = true;
  in_service_ = n;
  inflight_offset_ = offset;

  const TimePoint started = sim_.now();
  Duration service = acc_.service_time(model_, n);
  // Straggler slow-down. The != 1.0 gate keeps the healthy service time
  // bit-identical to the pre-fault computation (no extra FP round-trip).
  if (slowdown_ != 1.0) [[unlikely]] {
    service = Duration::from_seconds_f(service.sec() * slowdown_);
  }
  const std::uint32_t epoch = crash_epoch_;
  sim_.schedule_after(service, [this, started, offset, n, epoch] {
    finish_batch(started, offset, n, epoch);
  });
}

void AcceleratorServer::finish_batch(TimePoint started, std::uint32_t offset,
                                     std::uint32_t n, std::uint32_t epoch) {
  // The server failed while this batch was in service: its work is lost
  // (fail() already reported every entry through the failure sink) and
  // its results must never surface.
  if (epoch != crash_epoch_) [[unlikely]]
    return;
  busy_ = false;
  in_service_ = 0;
  const TimePoint done = sim_.now();
  // Deterministic trace sampling: ordinals come from the server's own
  // monotonic counters, so the SAME batches/requests are traced at any
  // worker count (and with tracing off the counters advance identically).
  const bool tracing = obs::kProbesCompiled && obs::trace_on();
  if (tracing && (batches_ & obs::kTraceBatchMask) == 0) {
    obs::probe_span(obs::TraceName::kBatch, started.ns(),
                    (done - started).ns(), n);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    const Entry& entry = scratch_[offset + i];
    ++completed_;
    if (tracing && (completed_ & obs::kTraceRequestMask) == 0) {
      obs::probe_span(obs::TraceName::kQueue, entry.submitted.ns(),
                      (started - entry.submitted).ns(), entry.slot);
    }
    sink_(entry.slot, entry.payload,
          Completion{entry.slot, entry.submitted, started, done, n});
  }
  // Requests that queued behind this batch are served next, FIFO.
  if (!busy_) maybe_dispatch();
}

}  // namespace sixg::edgeai
