#include "util/thread_pool.h"

#include <algorithm>

namespace elmo {

ThreadPool::ThreadPool(int num_threads)
    : live_(num_threads), target_threads_(num_threads) {
  std::lock_guard<std::mutex> l(mu_);
  for (int i = 0; i < num_threads; i++) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> l(mu_);
    shutting_down_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ThreadPool::Submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> l(mu_);
    queue_.push_back(std::move(job));
  }
  work_cv_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> l(mu_);
  idle_cv_.wait(l, [this] { return queue_.empty() && busy_ == 0; });
}

void ThreadPool::SetBackgroundThreads(int num_threads) {
  std::unique_lock<std::mutex> l(mu_);
  // Join the workers a previous shrink retired. Each recorded its id
  // under mu_ on its way out, so none of them needs the lock again.
  for (const std::thread::id& id : exited_) {
    auto same_id = [&id](const std::thread& t) { return t.get_id() == id; };
    auto it = std::find_if(threads_.begin(), threads_.end(), same_id);
    it->join();
    threads_.erase(it);
  }
  exited_.clear();
  // At least one worker stays, so queued jobs always drain.
  target_threads_ = std::max(1, num_threads);
  while (live_ < target_threads_) {
    threads_.emplace_back([this] { WorkerLoop(); });
    live_++;
  }
  l.unlock();
  // Shrinking: surplus workers exit when they next look for work.
  work_cv_.notify_all();
}

int ThreadPool::QueueLen() const {
  std::lock_guard<std::mutex> l(mu_);
  return static_cast<int>(queue_.size());
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> l(mu_);
  while (true) {
    work_cv_.wait(l, [this] {
      return shutting_down_ || !queue_.empty() || live_ > target_threads_;
    });
    if (live_ > target_threads_) {
      live_--;
      exited_.push_back(std::this_thread::get_id());
      // This worker may have consumed a Submit's wakeup; pass it on.
      if (!queue_.empty()) work_cv_.notify_one();
      return;
    }
    if (shutting_down_ && queue_.empty()) return;
    std::function<void()> job = std::move(queue_.front());
    queue_.pop_front();
    busy_++;
    l.unlock();
    job();
    l.lock();
    busy_--;
    if (queue_.empty() && busy_ == 0) idle_cv_.notify_all();
  }
}

}  // namespace elmo
