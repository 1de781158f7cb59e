#include "core/thread_pool.h"

#include <algorithm>
#include <deque>
#include <utility>

namespace respect::core {
namespace {

/// The default policy: strict submission order, attributes ignored.
class FifoTaskQueue final : public ThreadPool::TaskQueue {
 public:
  void Push(ThreadPool::Task task, ThreadPool::TaskAttrs) override {
    queue_.push_back(std::move(task));
  }

  [[nodiscard]] ThreadPool::Task Pop() override {
    ThreadPool::Task task = std::move(queue_.front());
    queue_.pop_front();
    return task;
  }

  [[nodiscard]] std::size_t Size() const override { return queue_.size(); }

 private:
  std::deque<ThreadPool::Task> queue_;
};

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : ThreadPool(num_threads, nullptr) {}

ThreadPool::ThreadPool(int num_threads, std::unique_ptr<TaskQueue> queue)
    : queue_(queue != nullptr ? std::move(queue)
                              : std::make_unique<FifoTaskQueue>()) {
  const int count = std::max(1, num_threads);
  workers_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // Workers exit as soon as Size() reaches 0, which for a policy queue that
  // hides capped entries can leave unconsumed work behind.  Every entry
  // still queued must be settled exactly once (run or drop its on_expired)
  // so promise-holding consumers are never left hanging.
  queue_->Shutdown();
}

void ThreadPool::Submit(Task task) { Submit(std::move(task), TaskAttrs{}); }

void ThreadPool::Submit(Task task, TaskAttrs attrs) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_->Push(std::move(task), std::move(attrs));
  }
  work_cv_.notify_one();
}

int ThreadPool::DefaultThreadCount() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stop_ || queue_->Size() > 0; });
      if (queue_->Size() == 0) return;  // stop_ set and nothing left to run
      task = queue_->Pop();
    }
    // A throwing task must not tear down the process (std::terminate) or
    // the worker: Submit offers no channel to report the error.
    try {
      task();
    } catch (...) {
    }
  }
}

}  // namespace respect::core
