#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/types.hpp"

namespace blr {

/// Fixed-size work-stealing worker pool executing the solver's task graphs.
///
/// Per-worker Chase–Lev deques (LIFO local push/pop, FIFO random steal) plus
/// a priority heap for submissions from non-worker threads: the numeric
/// factorization submits supernode eliminations with their critical-path
/// priority and lets idle workers steal. submit() never blocks, tasks may
/// submit further tasks, and wait_idle() returns only once every
/// transitively submitted task has finished.
class ThreadPool {
public:
  /// Per-worker scheduler counters (monotonic until reset_stats()).
  struct WorkerStats {
    std::uint64_t executed = 0;       ///< tasks run by this worker
    std::uint64_t steals = 0;         ///< tasks taken from another worker's deque
    std::uint64_t failed_steals = 0;  ///< full victim sweeps that found nothing
    std::uint64_t idle_sleeps = 0;    ///< times the worker blocked after backoff
    std::uint64_t discarded = 0;      ///< tasks dropped unrun by cancellation
  };

  /// Creates @p num_threads workers. 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Schedule a task. Never blocks. Larger @p priority runs earlier among
  /// tasks waiting in the injection heap (worker-local submissions run LIFO,
  /// which already favours the chain the submitting task just extended).
  void submit(std::function<void()> task, std::int64_t priority = 0);

  /// Block until every submitted task (including tasks submitted by running
  /// tasks) has finished. Must be called from outside the pool.
  void wait_idle();

  /// Cooperative cancellation: every task still queued (and every task
  /// submitted from now on) is discarded unrun instead of executed; tasks
  /// already running are not interrupted (they are expected to poll their
  /// own failure flag). wait_idle() still accounts for discarded tasks, so
  /// it returns as soon as the running tasks finish and the queues drain.
  /// The pool stays usable: clear with reset_cancel() before the next batch.
  /// This is the drain path for numerical breakdowns and resource breaches
  /// alike — the ResourceGovernor's deadline watchdog routes through the
  /// same record-failure-then-cancel sequence (DESIGN.md §13).
  void cancel();
  void reset_cancel() { cancelled_.store(false, std::memory_order_seq_cst); }
  [[nodiscard]] bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Tasks currently queued or running. 0 after wait_idle() returns — the
  /// no-task-leak invariant the cancellation tests assert.
  [[nodiscard]] index_t pending() const {
    return pending_.load(std::memory_order_acquire);
  }

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Run f(i) for i in [0, n) across the pool and wait for completion.
  /// Work is chunked to limit queue traffic. Safe to call from inside a
  /// running task (the caller participates instead of blocking the pool).
  /// If f throws, the first exception is kept, indices not yet started are
  /// skipped, and it is rethrown on the caller once every claimed chunk has
  /// finished — f is never touched after parallel_for returns.
  void parallel_for(index_t n, const std::function<void(index_t)>& f);

  /// Dense worker index of the calling thread in its pool, or -1 when the
  /// caller is not a pool worker.
  static int current_worker();

  [[nodiscard]] std::vector<WorkerStats> worker_stats() const;
  /// Sum of worker_stats() over all workers.
  [[nodiscard]] WorkerStats total_stats() const;
  void reset_stats();

private:
  struct Task {
    std::function<void()> fn;
    std::int64_t priority = 0;
    std::uint64_t seq = 0;  ///< submission order, FIFO tie-break in the heap
  };

  /// Chase–Lev work-stealing deque of Task pointers. The owning worker
  /// pushes/pops at the bottom (LIFO); thieves steal from the top (FIFO).
  /// Grows by doubling; retired arrays are kept until destruction so
  /// concurrent thieves never read freed memory.
  class Deque {
  public:
    Deque();
    ~Deque();
    void push(Task* t);          ///< owner only
    Task* pop();                 ///< owner only
    Task* steal();               ///< any thread
    [[nodiscard]] bool maybe_nonempty() const;

  private:
    struct Slots {
      explicit Slots(std::int64_t c)
          : cap(c), mask(c - 1), buf(new std::atomic<Task*>[static_cast<std::size_t>(c)]) {}
      std::int64_t cap;
      std::int64_t mask;
      std::unique_ptr<std::atomic<Task*>[]> buf;
    };
    Slots* grow(Slots* a, std::int64_t top, std::int64_t bottom);

    std::atomic<std::int64_t> top_{0};
    std::atomic<std::int64_t> bottom_{0};
    std::atomic<Slots*> slots_;
    std::vector<Slots*> retired_;  ///< owner-only; freed in the destructor
  };

  struct alignas(64) Worker {
    Deque deque;
    std::uint64_t rng = 0;  ///< victim-selection state, worker-local
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> failed_steals{0};
    std::atomic<std::uint64_t> idle_sleeps{0};
    std::atomic<std::uint64_t> discarded{0};
  };

  void worker_loop(int id);
  void run_task(Task* t, Worker& me);
  Task* pop_injected();
  Task* try_steal(int id, Worker& me);
  [[nodiscard]] bool has_work() const;
  void wake_sleepers();

  struct HeapCmp {
    bool operator()(const Task* a, const Task* b) const {
      if (a->priority != b->priority) return a->priority < b->priority;
      return a->seq > b->seq;  // equal priority: submission order
    }
  };

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  // Injection heap: submissions from non-worker threads.
  std::mutex inject_mutex_;
  std::priority_queue<Task*, std::vector<Task*>, HeapCmp> inject_;
  std::atomic<std::int64_t> inject_count_{0};

  // Sleep / wake / idle protocol.
  std::mutex sleep_mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::atomic<int> sleepers_{0};
  std::atomic<index_t> pending_{0};  ///< queued + running tasks
  std::atomic<bool> stop_{false};
  std::atomic<bool> cancelled_{false};
  std::atomic<std::uint64_t> seq_{0};
};

} // namespace blr
