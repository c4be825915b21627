#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <exception>

#include "obs/metrics.h"

namespace pds2::common {

namespace {

// Set while a thread is executing inside WorkerLoop; lets re-entrant calls
// detect "I am already on a worker of this pool" and run inline instead of
// blocking on a queue the current thread is supposed to drain.
thread_local const ThreadPool* g_current_pool = nullptr;

// Chunks per thread for the per-index ParallelFor: small enough to keep
// scheduling overhead negligible, large enough to smooth out uneven bodies.
constexpr size_t kChunksPerThread = 4;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads)
    : num_threads_(num_threads == 0 ? DefaultThreadCount() : num_threads) {
  workers_.reserve(num_threads_);
  for (size_t i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  g_current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    PDS2_M_GAUGE_ADD("pool.queue_depth", -1);
    PDS2_M_COUNT("pool.tasks_executed", 1);
    task();
  }
}

size_t ThreadPool::ChunkBegin(size_t n, size_t num_chunks, size_t chunk) {
  return n / num_chunks * chunk + std::min(chunk, n % num_chunks);
}

void ThreadPool::ParallelForChunks(
    size_t n, size_t num_chunks,
    const std::function<void(size_t, size_t, size_t)>& body) {
  if (n == 0 || num_chunks == 0) return;
  num_chunks = std::min(num_chunks, n);

  auto run_chunk = [&](size_t chunk) {
    body(chunk, ChunkBegin(n, num_chunks, chunk),
         ChunkBegin(n, num_chunks, chunk + 1));
  };

  if (num_threads_ <= 1 || num_chunks == 1 || g_current_pool == this) {
    PDS2_M_COUNT("pool.tasks_inline", num_chunks);
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) run_chunk(chunk);
    return;
  }

  struct JoinState {
    std::mutex mu;
    std::condition_variable done;
    size_t remaining;
    std::vector<std::exception_ptr> errors;
  };
  JoinState join;
  join.remaining = num_chunks;
  join.errors.resize(num_chunks);

  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
      queue_.emplace_back([&join, &run_chunk, chunk] {
        try {
          run_chunk(chunk);
        } catch (...) {
          join.errors[chunk] = std::current_exception();
        }
        std::lock_guard<std::mutex> done_lock(join.mu);
        if (--join.remaining == 0) join.done.notify_one();
      });
    }
  }
  PDS2_M_GAUGE_ADD("pool.queue_depth", num_chunks);
  PDS2_M_COUNT("pool.parallel_for_calls", 1);
  cv_.notify_all();

  std::unique_lock<std::mutex> wait_lock(join.mu);
  join.done.wait(wait_lock, [&join] { return join.remaining == 0; });
  for (std::exception_ptr& error : join.errors) {
    if (error) std::rethrow_exception(error);
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& body) {
  if (end <= begin) return;
  ParallelForChunks(end - begin, num_threads_ * kChunksPerThread,
                    [&](size_t /*chunk*/, size_t lo, size_t hi) {
                      for (size_t i = lo; i < hi; ++i) body(begin + i);
                    });
}

size_t ThreadPool::DefaultThreadCount() {
  if (const char* env = std::getenv("PDS2_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 1 && parsed <= 1024) {
      return static_cast<size_t>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool(DefaultThreadCount());
  return pool;
}

}  // namespace pds2::common
