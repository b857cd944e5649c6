#include "util/parallel.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"

namespace tme {

namespace {

// Set while the current thread executes a parallel_for block (caller or
// worker side); nested dispatches check it and run serially instead.
thread_local bool t_in_parallel_region = false;

struct RegionGuard {
  bool saved = t_in_parallel_region;
  RegionGuard() { t_in_parallel_region = true; }
  ~RegionGuard() { t_in_parallel_region = saved; }
};

}  // namespace

bool ThreadPool::in_parallel_region() { return t_in_parallel_region; }

ThreadPool::ThreadPool(unsigned workers) {
  tasks_.resize(workers);
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
    ++generation_;
  }
  cv_start_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop(unsigned index) {
  std::uint64_t seen = 0;
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mutex_);
      cv_start_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      task = tasks_[index];
    }
    if (task.fn != nullptr && task.begin < task.end) {
      RegionGuard region;
      try {
        (*task.fn)(task.begin, task.end);
      } catch (...) {
        std::lock_guard lock(mutex_);
        if (!first_error_) first_error_ = std::current_exception();
      }
    }
    {
      std::lock_guard lock(mutex_);
      --pending_;
    }
    cv_done_.notify_one();
  }
}

void ThreadPool::parallel_for_blocks(
    std::size_t first, std::size_t last,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (first >= last) return;
  const std::size_t n = last - first;
  const unsigned parts = static_cast<unsigned>(
      std::min<std::size_t>(concurrency(), n));
  // Serial fallback: a one-thread split, or a nested call issued from
  // inside another parallel_for block (re-entering the dispatch state
  // while a generation is in flight would corrupt it — see header).
  if (parts <= 1 || t_in_parallel_region) {
    TME_COUNTER_ADD("util/parallel_for/serial_calls", 1);
    RegionGuard region;
    fn(first, last);
    return;
  }
  TME_COUNTER_ADD("util/parallel_for/calls", 1);
  const std::size_t chunk = (n + parts - 1) / parts;
  // Give blocks 1..parts-1 to the workers, keep block 0 for this thread.
  {
    std::lock_guard lock(mutex_);
    // Every worker observes the new generation and decrements pending_,
    // including those that received an empty task.
    pending_ = static_cast<unsigned>(threads_.size());
    for (unsigned w = 0; w < threads_.size(); ++w) {
      const unsigned blk = w + 1;
      Task t;
      if (blk < parts) {
        t.fn = &fn;
        t.begin = std::min(first + blk * chunk, last);
        t.end = std::min(t.begin + chunk, last);
      }
      tasks_[w] = t;
    }
    ++generation_;
  }
  cv_start_.notify_all();
  {
    RegionGuard region;
    try {
      fn(first, std::min(first + chunk, last));
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
  std::unique_lock lock(mutex_);
  cv_done_.wait(lock, [&] { return pending_ == 0; });
  // Rethrow the first captured block exception (if any) on the caller,
  // leaving the pool ready for the next dispatch.
  if (first_error_) {
    std::exception_ptr err;
    std::swap(err, first_error_);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

unsigned pool_workers_from_env(const char* text, unsigned hardware_threads) {
  const unsigned fallback = std::max(1u, hardware_threads) - 1u;
  if (text == nullptr || *text == '\0') return fallback;
  // 4096 is a sanity bound, not a tuning knob.
  const auto v = env::parse_long(text);
  if (!v || *v < 1 || *v > 4096) {
    log_warn("TME_THREADS='", text, "' is not an integer in [1, 4096]; using ",
             fallback + 1u, " threads");
    return fallback;
  }
  return static_cast<unsigned>(*v) - 1u;
}

ThreadPool& global_pool() {
  static ThreadPool pool([] {
    const std::optional<std::string> text = env::raw("TME_THREADS");
    return pool_workers_from_env(text ? text->c_str() : nullptr,
                                 std::thread::hardware_concurrency());
  }());
  static const bool recorded = [] {
    obs::manifest_set("pool_threads", static_cast<double>(pool.concurrency()));
    return true;
  }();
  (void)recorded;
  return pool;
}

}  // namespace tme
