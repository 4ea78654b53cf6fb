// Resizable worker pool used by PosixEnv and MemEnv for background
// flushes and compactions. Priorities mirror RocksDB's HIGH (flush) / LOW
// (compaction) pools.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace elmo {

class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> job);

  // Block until the queue is empty and all workers are idle.
  void WaitIdle();

  // Change pool size (at least 1). Growing starts workers at once;
  // shrinking retires surplus workers as they finish their current job.
  void SetBackgroundThreads(int num_threads);

  int QueueLen() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;     // every worker not yet joined
  std::vector<std::thread::id> exited_;  // retired, awaiting join
  int live_;                             // workers still in WorkerLoop
  int target_threads_;
  int busy_ = 0;
  bool shutting_down_ = false;
};

}  // namespace elmo
