// A small fixed-size worker pool for the serving paths.
//
// The pool owns the workers and the hand-off machinery (mutex, condition
// variable); the *ordering* of pending tasks is a pluggable TaskQueue
// policy.  The default policy is plain FIFO — what net::FleetServer's
// connection pool uses — and serve::CompileService plugs in a
// deadline-aware multi-lane queue (serve::RequestQueue) without the pool
// knowing anything about priorities.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace respect::core {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Scheduling metadata forwarded from Submit to the pool's TaskQueue.
  /// The built-in FIFO queue ignores all of it; policy queues use `lane`
  /// for ordering and `deadline`/`on_expired` for in-queue expiry.
  struct TaskAttrs {
    /// Ordering hint; smaller = more urgent.  Meaning is defined by the
    /// TaskQueue implementation (the FIFO default has none).
    int lane = 0;

    /// Absolute expiry time, honored only when has_deadline is set and the
    /// installed TaskQueue implements expiry.
    std::chrono::steady_clock::time_point deadline{};
    bool has_deadline = false;

    /// Runs on a worker *in place of* the task when the queue expires the
    /// entry — the channel for failing the task's consumers fast.  May be
    /// empty (the entry is then dropped silently).
    Task on_expired;

    /// Fair-queueing flow this task belongs to (the serving layer passes
    /// the tenant id).  Policy queues may schedule flows weighted-fair
    /// inside a lane; the FIFO default and empty flows ("" = the shared
    /// default flow) behave as if the field did not exist.
    std::string flow;

    /// Marks the entry as load-sheddable: a bounded policy queue may refuse
    /// it at Push time by throwing (the exception propagates out of
    /// Submit(); nothing is enqueued).  Default false so bookkeeping tasks
    /// (batch groups) are never shed.
    bool sheddable = false;

    /// Observability trace id of the request flow this task belongs to
    /// (0 = none).  Policy queues that record queue-wait spans tag them
    /// with it; the pool itself ignores the field.
    std::uint64_t trace_id = 0;
  };

  /// Ordering policy for pending tasks.  The pool calls every method under
  /// its internal mutex, so implementations need no synchronization of
  /// their own for Push/Pop/Size — but they must not block and must not
  /// call back into the pool.  Any state an implementation exposes to
  /// other threads besides these three methods must be independently
  /// synchronized (e.g. atomic counters).
  class TaskQueue {
   public:
    virtual ~TaskQueue() = default;

    /// Takes ownership of one pending entry.
    virtual void Push(Task task, TaskAttrs attrs) = 0;

    /// Pops the next task to run; called only when Size() > 0, and the
    /// returned task is executed outside the pool mutex.  An expired
    /// entry's on_expired callback may be returned in place of its task —
    /// either way exactly one pushed entry is consumed and a non-empty
    /// callable is returned.
    [[nodiscard]] virtual Task Pop() = 0;

    /// Entries poppable *right now* — a policy may report fewer than it
    /// holds (e.g. a lane at its concurrency cap, see serve::RequestQueue)
    /// and workers will sleep on the hidden remainder.  A policy that
    /// hides entries must guarantee they become visible again through the
    /// pool's own activity (a returned task's completion on a worker that
    /// then re-reads Size(), or a later Push) — the pool never polls.
    [[nodiscard]] virtual std::size_t Size() const = 0;

    /// Called exactly once by ~ThreadPool AFTER every worker has joined
    /// (single-threaded, no pool mutex).  Implementations that still hold
    /// entries — hidden by a concurrency cap or simply never popped before
    /// stop — must settle each exactly once here: run its on_expired (the
    /// channel that fails the entry's consumers) or deliberately drop it.
    /// The default is a no-op for policies that never hide entries.
    virtual void Shutdown() {}
  };

  /// Spawns `num_threads` workers (values < 1 are clamped to 1) over the
  /// default FIFO queue.
  explicit ThreadPool(int num_threads);

  /// Same, pulling tasks through `queue` (null selects the FIFO default).
  /// The pool owns the queue; callers that keep a non-owning pointer for
  /// out-of-band reads (metrics) must not outlive the pool.
  ThreadPool(int num_threads, std::unique_ptr<TaskQueue> queue);

  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; it may start running before Submit returns.  A task
  /// that throws is swallowed (there is no channel to report it), so tasks
  /// whose errors matter must hand them to their consumer themselves.
  void Submit(Task task);

  /// Same, with scheduling attributes for the installed TaskQueue.
  void Submit(Task task, TaskAttrs attrs);

  [[nodiscard]] int NumThreads() const {
    return static_cast<int>(workers_.size());
  }

  /// hardware_concurrency with a floor of 1 (the value is 0 when unknown).
  [[nodiscard]] static int DefaultThreadCount();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::unique_ptr<TaskQueue> queue_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  // signals workers: task queued / stop
  bool stop_ = false;
};

}  // namespace respect::core
