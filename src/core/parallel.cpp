#include "core/parallel.h"

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "trace/trace.h"

namespace desync::core {

namespace {

thread_local bool tls_in_parallel = false;

/// This thread's jobs override (JobsScope / setThreadJobs); 0 = use the
/// process environment default.  Thread-local on purpose: concurrent
/// library callers (drdesyncd request handlers) each carry their own
/// budget, so nobody can change another request's parallelism.
thread_local int tls_jobs_override = 0;

/// Per-issuing-thread section counters (threadPoolStats()); the pool also
/// keeps process-wide atomics for poolStats().
thread_local PoolStats tls_pool_stats;

/// One parallelFor invocation: an index range consumed through an atomic
/// counter by the pool workers and the calling thread together.
struct Job {
  std::size_t n = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> cancelled{false};

  std::mutex err_mutex;
  std::exception_ptr error;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();

  std::mutex done_mutex;
  std::condition_variable done_cv;

  /// Pulls and runs iterations until the range is exhausted (or an earlier
  /// iteration failed).  Called from workers and from the issuing thread.
  void work() {
    tls_in_parallel = true;
    const bool tracing = trace::enabled();
    const double run_begin = tracing ? trace::timestampUs() : 0.0;
    std::size_t claimed = 0;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      ++claimed;
      if (!cancelled.load(std::memory_order_relaxed)) {
        try {
          (*fn)(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(err_mutex);
          // Keep the lowest-indexed failure so the surfaced exception does
          // not depend on scheduling.
          if (i < error_index) {
            error_index = i;
            error = std::current_exception();
          }
          cancelled.store(true, std::memory_order_relaxed);
        }
      }
    }
    // The run span is recorded BEFORE the claimed iterations are published:
    // waitFinished()'s acquire of `done` then guarantees the drain sees
    // every event this thread buffered during the section (trace/trace.h).
    if (tracing) {
      trace::completedSpan("parallel_run", "parallel", run_begin,
                           trace::timestampUs());
    }
    if (claimed > 0 &&
        done.fetch_add(claimed, std::memory_order_acq_rel) + claimed == n) {
      std::lock_guard<std::mutex> lock(done_mutex);
      done_cv.notify_all();
    }
    tls_in_parallel = false;
  }

  void waitFinished() {
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock,
                 [&] { return done.load(std::memory_order_acquire) >= n; });
  }
};

/// The process-wide pool.  Threads are created lazily on first parallel
/// use and grow (never shrink) when a later section requests more workers;
/// idle workers block on a condition variable.  The instance is leaked on
/// purpose: joining workers from a static destructor races the teardown of
/// other translation units' statics (the trace registry among them), so
/// the only join is the explicit shutdownParallel() the tools call before
/// exit.  Un-joined workers at process exit sit parked in the wake wait
/// and touch nothing.
class Pool {
 public:
  static Pool& instance() {
    static Pool* pool = new Pool;  // leaked: see class comment
    return *pool;
  }

  void run(std::size_t n, const std::function<void(std::size_t)>& fn,
           int jobs) {
    sections_.fetch_add(1, std::memory_order_relaxed);
    ++tls_pool_stats.sections;
    // One section at a time: a concurrent top-level caller (a second
    // drdesyncd request, a second library thread) queues up here.  The
    // wait is counted and traced so serialized requests show up in
    // --report ("pool" object) and on the waiting caller's trace track
    // instead of as silent latency.
    std::unique_lock<std::mutex> run_lock(run_mutex_, std::try_to_lock);
    if (!run_lock.owns_lock()) {
      const double wait_begin = trace::timestampUs();
      run_lock.lock();
      const double wait_end = trace::timestampUs();
      contended_.fetch_add(1, std::memory_order_relaxed);
      wait_us_.fetch_add(static_cast<std::uint64_t>(wait_end - wait_begin),
                         std::memory_order_relaxed);
      ++tls_pool_stats.contended;
      tls_pool_stats.wait_us += wait_end - wait_begin;
      trace::completedSpan("pool_wait", "parallel", wait_begin, wait_end);
    }
    trace::Span section("parallel_for", "parallel");
    auto job = std::make_shared<Job>();
    job->n = n;
    job->fn = &fn;

    ensureWorkers(jobs - 1);  // the caller is worker #0
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = job;
      ++job_serial_;
    }
    wake_cv_.notify_all();

    job->work();          // participate until the range is drained
    job->waitFinished();  // then wait for workers still inside fn

    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (job_ == job) job_.reset();
    }
    if (job->error) std::rethrow_exception(job->error);
  }

  PoolStats stats() const {
    PoolStats s;
    s.sections = sections_.load(std::memory_order_relaxed);
    s.contended = contended_.load(std::memory_order_relaxed);
    s.wait_us = static_cast<double>(wait_us_.load(std::memory_order_relaxed));
    return s;
  }

  /// Joins every worker.  Later sections find a stopped pool (ensureWorkers
  /// refuses to spawn) and drain their range on the calling thread alone.
  void shutdownNow() {
    std::vector<std::thread> workers;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
      workers.swap(workers_);
    }
    wake_cv_.notify_all();
    for (std::thread& t : workers) t.join();
  }

 private:
  Pool() = default;

  void ensureWorkers(int count) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (shutdown_) return;  // after shutdownParallel(): caller-only drain
    while (static_cast<int>(workers_.size()) < count) {
      const int index = static_cast<int>(workers_.size()) + 1;
      workers_.emplace_back([this, index] { workerLoop(index); });
    }
    // New workers have named their trace tracks before the section runs,
    // so a traced section at --jobs N always shows N tracks, however late
    // a loaded host schedules the new threads.
    started_cv_.wait(lock, [&] { return started_ == workers_.size(); });
  }

  void workerLoop(int index) {
    // One trace track per pool worker; the issuing thread is "flow", so a
    // section at --jobs N shows N executing tracks (flow + N-1 workers).
    trace::setThreadName("worker-" + std::to_string(index));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++started_;
    }
    started_cv_.notify_all();
    std::uint64_t seen_serial = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      const double wait_begin = trace::enabled() ? trace::timestampUs() : 0.0;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_cv_.wait(lock, [&] {
          return shutdown_ || (job_ != nullptr && job_serial_ != seen_serial);
        });
        if (shutdown_) return;
        job = job_;
        seen_serial = job_serial_;
      }
      // Queue-wait spans are recorded only once the wait ended, so a
      // worker parked in the condition wait never leaves an open span in
      // its buffer at drain time.
      if (wait_begin != 0.0 && trace::enabled()) {
        trace::completedSpan("queue_wait", "parallel", wait_begin,
                             trace::timestampUs());
      }
      job->work();
    }
  }

  std::mutex run_mutex_;
  std::mutex mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable started_cv_;
  std::vector<std::thread> workers_;
  std::size_t started_ = 0;  ///< workers that named their trace track
  std::shared_ptr<Job> job_;
  std::uint64_t job_serial_ = 0;
  bool shutdown_ = false;

  std::atomic<std::uint64_t> sections_{0};
  std::atomic<std::uint64_t> contended_{0};
  std::atomic<std::uint64_t> wait_us_{0};
};

/// Parses DESYNC_JOBS (or falls back to the hardware default).  Malformed
/// or out-of-range values are rejected WITH a note on stderr — once, when
/// first parsed — instead of silently ignored.
int parseEnvironmentJobs() {
  if (const char* env = std::getenv("DESYNC_JOBS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= 1024) {
      return static_cast<int>(v);
    }
    std::fprintf(stderr,
                 "desync: ignoring DESYNC_JOBS='%s' (expected an integer in "
                 "1..1024); using the hardware default\n",
                 env);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Cached DESYNC_JOBS parse; 0 = not parsed yet.  effectiveJobs() sits
/// under hot loops, so the environment is read once per process (a benign
/// first-use race re-parses to the same value).
std::atomic<int> g_env_jobs{0};

int environmentJobs() {
  int v = g_env_jobs.load(std::memory_order_acquire);
  if (v == 0) {
    v = parseEnvironmentJobs();
    g_env_jobs.store(v, std::memory_order_release);
  }
  return v;
}

}  // namespace

int effectiveJobs() {
  return tls_jobs_override > 0 ? tls_jobs_override : environmentJobs();
}

void setThreadJobs(int jobs) { tls_jobs_override = jobs > 0 ? jobs : 0; }

JobsScope::JobsScope(int jobs) : saved_(tls_jobs_override) {
  tls_jobs_override = jobs > 0 ? jobs : 0;
}

JobsScope::~JobsScope() { tls_jobs_override = saved_; }

bool inParallelSection() { return tls_in_parallel; }

void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const int jobs = effectiveJobs();
  if (jobs <= 1 || n == 1 || tls_in_parallel) {
    // Exact serial path: index order, caller's thread, pool untouched.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  Pool::instance().run(n, fn, jobs);
}

PoolStats poolStats() { return Pool::instance().stats(); }

PoolStats threadPoolStats() { return tls_pool_stats; }

void shutdownParallel() { Pool::instance().shutdownNow(); }

namespace detail {
void resetEnvironmentJobsForTest() {
  g_env_jobs.store(0, std::memory_order_release);
}
}  // namespace detail

}  // namespace desync::core
