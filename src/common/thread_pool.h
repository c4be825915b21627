#ifndef PDS2_COMMON_THREAD_POOL_H_
#define PDS2_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pds2::common {

/// Fixed-size thread pool powering every parallel hot path in the library
/// (block signature verification, Merkle construction, Monte-Carlo Shapley
/// sampling, network-simulation batches).
///
/// Determinism contract: the pool itself never introduces nondeterminism.
/// Chunk boundaries depend only on (range, chunk count), never on thread
/// count or scheduling, so a caller that (a) derives any randomness from the
/// chunk/item index and (b) combines partial results in chunk order produces
/// bit-identical output for every pool size — including 1, which executes
/// everything inline on the calling thread in ascending order (exactly the
/// pre-parallel sequential code path).
///
/// Re-entrancy: a ParallelFor issued from inside a worker of the same pool
/// runs inline on that worker, so nested parallelism can never deadlock
/// waiting for an occupied worker.
class ThreadPool {
 public:
  /// `num_threads == 0` resolves to DefaultThreadCount().
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t NumThreads() const { return num_threads_; }

  /// Invokes `body(i)` for every i in [begin, end), possibly concurrently.
  /// Blocks until all indices completed. Exceptions are collected and the
  /// one from the lowest-numbered chunk is rethrown after the join.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& body);

  /// Splits [0, n) into at most `num_chunks` balanced contiguous chunks and
  /// invokes `body(chunk_index, chunk_begin, chunk_end)` for each, possibly
  /// concurrently. Chunk boundaries are a pure function of (n, num_chunks)
  /// — see ChunkBegin — which is what makes deterministic per-chunk RNG
  /// seeding possible regardless of pool size.
  void ParallelForChunks(
      size_t n, size_t num_chunks,
      const std::function<void(size_t, size_t, size_t)>& body);

  /// First index of `chunk` when [0, n) is split into `num_chunks` balanced
  /// parts (chunk == num_chunks yields n). Requires num_chunks >= 1.
  static size_t ChunkBegin(size_t n, size_t num_chunks, size_t chunk);

  /// PDS2_THREADS environment override if set to a positive integer,
  /// otherwise hardware_concurrency() (minimum 1).
  static size_t DefaultThreadCount();

  /// Process-wide shared pool sized by DefaultThreadCount(). Intended for
  /// call sites that have no pool plumbed through; tests and benches build
  /// their own pools to sweep thread counts.
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  size_t num_threads_;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace pds2::common

#endif  // PDS2_COMMON_THREAD_POOL_H_
