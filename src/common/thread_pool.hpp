// Persistent work-stealing host thread pool.
//
// The execution-service substrate of the simulator: a process-wide pool of
// worker threads with one double-ended task queue per worker. `submit()`
// distributes tasks round-robin; an idle worker first drains its own deque
// from the front, then steals from the *back* of sibling deques, so coarse
// tasks (server job attempts, parallel-loop helpers) migrate to whichever
// core is free. Workers live for the life of the process — nothing is
// forked or joined per kernel launch, which is what lets per-worker
// `BlockContext`s (thread_local in gpusim/launch.hpp) persist across
// launches.
//
// Parallel loops use `parallel_run`: the *caller participates* — it claims
// chunks alongside the helper tasks it submitted — so a loop issued from
// inside a pool task (e.g. a server job attempt executing a kernel) cannot
// deadlock: even if every other worker is busy, the caller itself finishes
// the loop. OpenMP is not used; parallelism is std::thread-based and works
// in non-OpenMP builds (see ssam::hardware_concurrency()).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace ssam {

/// Host worker count: the `SSAM_THREADS` environment variable when set to a
/// positive integer, otherwise std::thread::hardware_concurrency() (min 1).
/// This is the fallback that keeps non-OpenMP builds parallel.
[[nodiscard]] int hardware_concurrency();

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Spawns `threads` persistent workers (clamped to >= 1). When `pin_cpus`
  /// is non-empty, worker w is pinned to core pin_cpus[w % pin_cpus.size()]
  /// (Linux only; silently ignored where unsupported) — the affinity knob of
  /// the virtual-device layer (gpusim/device.hpp), which carves disjoint
  /// core sets per device so shards do not migrate across each other.
  explicit ThreadPool(int threads, std::vector<int> pin_cpus = {});

  /// Joins all workers after the queues drain.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(threads_.size()); }

  /// Enqueues a task onto one of the worker deques (round-robin) and wakes
  /// the pool. Any worker may end up running it via stealing.
  void submit(Task task);

  /// The process-wide pool, created on first use with hardware_concurrency()
  /// workers.
  [[nodiscard]] static ThreadPool& global();

  /// Replaces the global pool with one of `threads` workers. Test hook for
  /// the determinism-across-pool-sizes suite; must only be called while no
  /// launches or server jobs are in flight.
  static void reset_global(int threads);

  /// True when called from one of this pool's worker threads.
  [[nodiscard]] bool on_worker_thread() const;

  // ------------------------------------------------------- parallel loops

 private:
  /// Shared bookkeeping of one parallel_run call. Helpers hold it by
  /// shared_ptr so a late-starting helper can observe an exhausted cursor
  /// and exit without touching the caller's (possibly dead) stack frame,
  /// where the real `work` callable lives.
  struct RunState {
    std::atomic<std::int64_t> cursor{0};
    std::int64_t n = 0;
    std::int64_t chunk = 1;
    std::mutex m;
    std::condition_variable cv;
    std::int64_t completed = 0;  ///< indices finished (guarded by m)
    int active_helpers = 0;      ///< helpers currently inside `work`
    std::function<void()> participant;  ///< valid only while the caller waits

    void note_completed(std::int64_t count) {
      std::lock_guard<std::mutex> lock(m);
      completed += count;
      if (completed >= n && active_helpers == 0) cv.notify_all();
    }
  };

 public:
  /// Hands out [begin, end) chunks of a parallel loop; each participating
  /// thread calls next() until it returns false. Completion of a chunk is
  /// recorded on the following next() call (or on destruction), so the loop
  /// is observed finished only after every claimed index has executed.
  class ChunkClaimer {
   public:
    ChunkClaimer(RunState* st, std::int64_t n, std::int64_t chunk)
        : st_(st), n_(n), chunk_(chunk) {}
    ChunkClaimer(const ChunkClaimer&) = delete;
    ChunkClaimer& operator=(const ChunkClaimer&) = delete;
    ~ChunkClaimer() { flush(); }

    /// Claims the next chunk; returns false when the loop is exhausted.
    bool next(std::int64_t& begin, std::int64_t& end) {
      flush();
      if (st_ == nullptr) {  // serial fast path: one chunk, the whole range
        if (serial_done_) return false;
        serial_done_ = true;
        begin = 0;
        end = n_;
        return true;
      }
      const std::int64_t b = st_->cursor.fetch_add(chunk_, std::memory_order_relaxed);
      if (b >= n_) return false;
      begin = b;
      end = b + chunk_ < n_ ? b + chunk_ : n_;
      pending_ = end - begin;
      return true;
    }

   private:
    void flush() {
      if (pending_ > 0 && st_ != nullptr) {
        st_->note_completed(pending_);
        pending_ = 0;
      }
    }

    RunState* st_;
    std::int64_t n_;
    std::int64_t chunk_;
    std::int64_t pending_ = 0;
    bool serial_done_ = false;
  };

  /// Runs `work(claimer)` on the caller and on up to size() helper workers
  /// concurrently until all `n` indices are claimed and completed. `work` is
  /// invoked once per participating thread (so per-thread state — a pooled
  /// BlockContext, a scratch buffer — is naturally per-participant) and
  /// should drain the claimer. Blocks until every claimed chunk has
  /// finished; safe to call from inside a pool task (the caller
  /// participates, see header comment). Loops of at most `chunk` indices —
  /// and every loop when the pool has a single worker — run serially on the
  /// caller with zero synchronization.
  template <typename Work>
  void parallel_run(std::int64_t n, std::int64_t chunk, Work&& work) {
    if (n <= 0) return;
    chunk = chunk < 1 ? 1 : chunk;
    const std::int64_t chunks = (n + chunk - 1) / chunk;
    if (chunks <= 1 || size() <= 1) {
      ChunkClaimer serial(nullptr, n, chunk);
      work(serial);
      return;
    }

    auto st = std::make_shared<RunState>();
    st->n = n;
    st->chunk = chunk;
    st->participant = [&work, st_raw = st.get()] {
      ChunkClaimer c(st_raw, st_raw->n, st_raw->chunk);
      work(c);
    };
    spawn_helpers(st, chunks);

    {  // The caller participates like any helper.
      ChunkClaimer c(st.get(), n, chunk);
      work(c);
    }

    std::unique_lock<std::mutex> lock(st->m);
    st->cv.wait(lock, [&] { return st->completed >= st->n && st->active_helpers == 0; });
  }

 private:
  struct Worker {
    std::mutex m;
    std::deque<Task> q;
  };

  /// Submits up to size() helper tasks (capped by remaining chunks) that run
  /// st->participant. The gate inside the task guarantees a helper only
  /// touches `participant` while the caller is still waiting in
  /// parallel_run.
  void spawn_helpers(const std::shared_ptr<RunState>& st, std::int64_t chunks);

  void worker_main(int self);
  bool try_get_task(int self, Task& out);

  std::vector<std::unique_ptr<Worker>> queues_;
  std::vector<std::thread> threads_;
  std::mutex sleep_m_;
  std::condition_variable sleep_cv_;
  std::atomic<int> pending_{0};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> rr_{0};
};

/// Runs fn(i) for i in [0, n). fn must be safe to run concurrently for
/// distinct i (blocks write disjoint output regions).
template <typename Fn>
void parallel_for(std::int64_t n, Fn&& fn) {
  ThreadPool::global().parallel_run(n, 8, [&fn](ThreadPool::ChunkClaimer& c) {
    std::int64_t b = 0;
    std::int64_t e = 0;
    while (c.next(b, e)) {
      for (std::int64_t i = b; i < e; ++i) fn(i);
    }
  });
}

/// Chunked parallel loop with one pooled state object per participating
/// thread: `make_state()` runs once per participant (that claims work), then
/// `fn(i, state)` is called for every index that participant claims.
template <typename MakeState, typename Fn>
void parallel_for_pooled(std::int64_t n, MakeState&& make_state, Fn&& fn) {
  ThreadPool::global().parallel_run(
      n, 16, [&make_state, &fn](ThreadPool::ChunkClaimer& c) {
        std::int64_t b = 0;
        std::int64_t e = 0;
        if (!c.next(b, e)) return;  // no work claimed: skip state construction
        auto state = make_state();
        do {
          for (std::int64_t i = b; i < e; ++i) fn(i, state);
        } while (c.next(b, e));
      });
}

}  // namespace ssam
