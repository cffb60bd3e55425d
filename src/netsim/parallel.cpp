#include "netsim/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "obs/obs.hpp"

namespace sixg::netsim {

namespace {

[[nodiscard]] std::uint64_t steady_ns() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

/// One run() call: its jobs, the cursor they are claimed off, and the
/// helpers working on it. Lives on the caller's stack; `open`, `joined`
/// and `active` are guarded by the executor's mutex.
struct Batch {
  Batch(const std::function<void(std::size_t)>& fn, std::size_t jobs,
        ParallelRunner::Profile* record, unsigned helpers)
      : job(fn), count(jobs), profile(record), open(helpers) {}

  const std::function<void(std::size_t)>& job;
  const std::size_t count;
  ParallelRunner::Profile* const profile;  ///< null: not profiled
  unsigned open;                           ///< helper slots left
  unsigned joined = 0;                     ///< helpers attached so far
  unsigned active = 0;                     ///< attached helpers still working
  std::atomic<std::size_t> cursor{0};
  std::condition_variable left;  ///< notified when `active` drops to 0

  /// Claim and run jobs until the cursor runs dry.
  void work(unsigned slot) {
    const std::uint64_t t0 = profile != nullptr ? steady_ns() : 0;
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      job(i);
    }
    if (profile != nullptr) {
      ParallelRunner::Profile::Slot& s = profile->slots[slot];
      s.busy_ns += steady_ns() - t0;
      ++s.batches;
    }
  }
};

/// The process-wide worker threads. A caller opens its batch, works on
/// it, then closes it and waits only for the helpers that attached, so
/// the batch completes when its jobs are done; a helper that wakes after
/// the close finds nothing to join. The job results a helper wrote reach
/// the caller through the mutex hand-off at detach.
class Executor {
 public:
  Executor() = default;
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  ~Executor() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
      for (std::condition_variable* parked : parked_) parked->notify_one();
    }
    for (auto& t : threads_) t.join();
  }

  void run(Batch& batch) {
    // Wall time starts before the batch opens: a thread already awake
    // may attach the moment the mutex is released.
    const std::uint64_t t0 = batch.profile != nullptr ? steady_ns() : 0;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      while (threads_.size() < batch.open) {
        threads_.emplace_back([this] { serve(); });
      }
      open_.push_back(&batch);
      // Wake the most recently parked threads: a stream of one-helper
      // batches (2-shard windows) then keeps landing on one warm thread
      // instead of cycling through every thread the executor has grown to.
      for (unsigned i = 0; i < batch.open && !parked_.empty(); ++i) {
        parked_.back()->notify_one();
        parked_.pop_back();
      }
    }
    batch.work(0);
    std::unique_lock<std::mutex> lock(mu_);
    std::erase(open_, &batch);
    batch.left.wait(lock, [&] { return batch.active == 0; });
    if (batch.profile != nullptr) batch.profile->wall_ns += steady_ns() - t0;
  }

 private:
  /// Attach to the oldest open batch that has jobs left. Needs mu_.
  Batch* attach() {
    for (auto it = open_.begin(); it != open_.end(); ++it) {
      Batch* batch = *it;
      if (batch->cursor.load(std::memory_order_relaxed) >= batch->count) {
        continue;
      }
      ++batch->joined;
      ++batch->active;
      if (--batch->open == 0) open_.erase(it);
      return batch;
    }
    return nullptr;
  }

  void serve() {
    std::condition_variable wake;  // this thread's own, listed in parked_
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      // Join only a batch attach() returned: a caller may exhaust and
      // close its batch between a wake-up and any later look at open_.
      Batch* batch = nullptr;
      while (!stopping_ && (batch = attach()) == nullptr) {
        parked_.push_back(&wake);
        wake.wait(lock);
        std::erase(parked_, &wake);  // still listed after a spurious wake-up
      }
      if (batch == nullptr) return;
      const unsigned slot = batch->joined;
      lock.unlock();
      {
        // Helpers write probes to their own scope, one per thread and
        // obs section; counters merged from it are sums, so the merged
        // metrics do not depend on which thread ran a job.
        const obs::ScopeBind bind(obs::probes_enabled()
                                      ? obs::Runtime::instance().thread_scope()
                                      : nullptr);
        batch->work(slot);
      }
      lock.lock();
      // Notify under the mutex: the caller destroys the batch as soon as
      // it can reacquire it.
      if (--batch->active == 0) batch->left.notify_one();
    }
  }

  std::mutex mu_;
  std::vector<Batch*> open_;  ///< batches with helper slots left
  /// Wake-up signals of the threads waiting for a batch, most recently
  /// parked last.
  std::vector<std::condition_variable*> parked_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;  ///< last: the threads use the above
};

void run_batch(unsigned threads, std::size_t job_count,
               const std::function<void(std::size_t)>& job,
               ParallelRunner::Profile* profile) {
  const std::size_t participants = std::min<std::size_t>(threads, job_count);
  if (participants <= 1) {
    for (std::size_t i = 0; i < job_count; ++i) job(i);
    return;
  }
  if (profile != nullptr && profile->slots.size() < participants) {
    profile->slots.resize(participants);
  }
  static Executor executor;
  Batch batch{job, job_count, profile, unsigned(participants - 1)};
  executor.run(batch);
}

}  // namespace

ParallelRunner::ParallelRunner(unsigned threads)
    : threads_(threads != 0 ? threads
                            : std::max(1u, std::thread::hardware_concurrency())) {}

void ParallelRunner::run(std::size_t job_count,
                         const std::function<void(std::size_t)>& job) const {
  run_batch(threads_, job_count, job, nullptr);
}

void ParallelRunner::run(std::size_t job_count,
                         const std::function<void(std::size_t)>& job,
                         Profile& profile) const {
  run_batch(threads_, job_count, job,
            obs::kProbesCompiled && obs::metrics_on() ? &profile : nullptr);
}

}  // namespace sixg::netsim
