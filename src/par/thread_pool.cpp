#include "par/thread_pool.hpp"

#include <atomic>
#include <cctype>
#include <cstdint>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace cgn::par {

namespace {

obs::Counter& g_jobs = obs::counter("par.jobs_dispatched");
obs::Counter& g_shards = obs::counter("par.shards_run");
obs::Counter& g_spawned = obs::counter("par.pool_threads_spawned");

/// True while this thread is executing a shard body (pool worker or
/// caller lane 0). A nested run_shards under a running job must not touch
/// the pool — the caller lane still holds the job mutex — so it runs
/// inline instead.
thread_local bool t_in_shard = false;

struct InShardScope {
  bool prev = t_in_shard;
  InShardScope() { t_in_shard = true; }
  ~InShardScope() { t_in_shard = prev; }
};

/// Runs one shard body. noexcept makes a body that breaks run_shards'
/// no-throw precondition terminate here, on the thread that threw,
/// instead of unwinding through a pool thread.
void run_one(const std::function<void(std::size_t)>& fn,
             std::size_t shard) noexcept {
  InShardScope in_shard;
  fn(shard);
  g_shards.inc();
}

/// One dispatched run_shards call. Lives on the heap behind shared_ptrs so
/// a pool thread that wakes late (after the queue drained and the caller
/// returned) still holds valid memory to look at.
struct Job {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t count = 0;
  /// Self-scheduling cursor: each worker claims the next unclaimed shard
  /// with one relaxed fetch_add. Claims are unique; order of execution is
  /// a scheduling accident that no output may depend on.
  std::atomic<std::size_t> next{0};
  /// Shards finished. The release increment pairs with the caller's
  /// acquire load so every shard's writes are visible at the barrier.
  std::atomic<std::size_t> finished{0};
};

/// Process-wide persistent worker pool. Threads are spawned lazily (first
/// campaign that needs them), parked on a condition variable between jobs,
/// and live for the process lifetime; pool thread i permanently owns obs
/// thread slot i + 1. Jobs are serialized: one run_shards fan-out at a
/// time, which matches the campaign drivers (and keeps slot occupancy
/// single-writer).
class WorkerPool {
 public:
  static WorkerPool& instance() {
    static WorkerPool* pool = new WorkerPool();  // leaked: workers park forever
    return *pool;
  }

  void run(std::size_t shard_count,
           const std::function<void(std::size_t)>& shard_fn,
           std::size_t workers) {
    // One fan-out at a time; a concurrent caller queues here instead of
    // racing for pool lanes.
    std::lock_guard<std::mutex> job_lock(job_mu_);
    const std::size_t pool_lanes = workers - 1;
    ensure_threads(pool_lanes);

    auto job = std::make_shared<Job>();
    job->fn = &shard_fn;
    job->count = shard_count;
    g_jobs.inc();

    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = job;
      job_lanes_ = pool_lanes;
      ++generation_;
    }
    cv_.notify_all();

    // The caller is lane 0: it works the same queue on its own metric slot
    // instead of blocking while the pool does everything.
    work(*job);

    // Barrier: every shard finished (acquire pairs with the workers'
    // release increments, making their result writes visible).
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return job->finished.load(std::memory_order_acquire) == job->count;
    });
    job_.reset();
  }

  [[nodiscard]] std::size_t thread_count() {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_.size();
  }

 private:
  WorkerPool() = default;

  void ensure_threads(std::size_t want) {
    std::lock_guard<std::mutex> lock(mu_);
    while (threads_.size() < want) {
      const std::size_t index = threads_.size();
      threads_.emplace_back([this, index] { worker_main(index); });
      g_spawned.inc();
    }
  }

  void worker_main(std::size_t index) {
    // Permanent identity: pool thread `index` owns metric slot index + 1
    // for its whole life, so any shard it steals writes that slot and the
    // slot never aliases another live thread.
    obs::ThreadSlotScope slot(index + 1);
    std::uint64_t seen_generation = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] {
          return stop_ ||
                 (job_ != nullptr && generation_ != seen_generation &&
                  index < job_lanes_);
        });
        if (stop_) return;
        seen_generation = generation_;
        job = job_;
      }
      work(*job);
    }
  }

  /// The self-scheduling loop every lane (caller and pool threads) runs:
  /// claim the next shard, run it, repeat until the queue drains. A lane
  /// that wakes after the drain claims nothing and goes back to sleep.
  void work(Job& job) {
    for (;;) {
      const std::size_t shard =
          job.next.fetch_add(1, std::memory_order_relaxed);
      if (shard >= job.count) break;
      run_one(*job.fn, shard);
      if (job.finished.fetch_add(1, std::memory_order_release) + 1 ==
          job.count) {
        // Whoever finishes the last shard releases the barrier.
        std::lock_guard<std::mutex> lock(mu_);
        done_cv_.notify_all();
      }
    }
  }

  std::mutex job_mu_;  ///< serializes whole jobs (outer)
  std::mutex mu_;      ///< guards dispatch state below (inner)
  std::condition_variable cv_;       ///< parks idle pool threads
  std::condition_variable done_cv_;  ///< releases the caller's barrier
  std::shared_ptr<Job> job_;
  std::size_t job_lanes_ = 0;  ///< pool threads requested for the job
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace

std::size_t configured_threads() {
  const char* v = std::getenv("CGN_THREADS");
  if (!v || !*v) return 1;
  // Strict decimal parse: any non-digit (including signs and trailing
  // garbage like "4x") rejects the whole value instead of silently running
  // with strtoul's half-parsed prefix.
  for (const char* p = v; *p; ++p)
    if (!std::isdigit(static_cast<unsigned char>(*p))) {
      static std::once_flag warned;
      std::call_once(warned, [v] {
        std::fprintf(stderr,
                     "cgn::par: CGN_THREADS='%s' is not a plain decimal "
                     "number; running serial\n",
                     v);
      });
      return 1;
    }
  char* end = nullptr;
  const unsigned long n = std::strtoul(v, &end, 10);
  if (n == 0) return 1;
  // Slot 0 stays reserved for the calling thread, so at most
  // kMaxThreadSlots - 1 additional workers can hold distinct metric slots.
  const std::size_t max_workers = obs::kMaxThreadSlots - 1;
  if (n > max_workers) {
    static std::once_flag clamped;
    std::call_once(clamped, [v, max_workers] {
      std::fprintf(stderr,
                   "cgn::par: CGN_THREADS=%s exceeds the %zu metric slots; "
                   "clamping to %zu workers\n",
                   v, obs::kMaxThreadSlots, max_workers);
    });
    return max_workers;
  }
  return static_cast<std::size_t>(n);
}

std::size_t pool_thread_count() { return WorkerPool::instance().thread_count(); }

void run_shards(std::size_t shard_count,
                const std::function<void(std::size_t)>& shard_fn,
                std::size_t threads) {
  if (shard_count == 0) return;
  if (threads == 0) threads = configured_threads();
  const std::size_t workers = threads < shard_count ? threads : shard_count;

  if (workers <= 1 || t_in_shard) {
    // Serial path (also the nested-fan-out guard: a shard body that fans
    // out again runs its inner shards inline — whether it is a pool
    // worker or the caller lane, the pool is busy with the outer job).
    // Same shard body, calling thread keeps its own metric slot.
    for (std::size_t shard = 0; shard < shard_count; ++shard)
      run_one(shard_fn, shard);
    return;
  }

  WorkerPool::instance().run(shard_count, shard_fn, workers);
}

}  // namespace cgn::par
