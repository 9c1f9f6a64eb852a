#include "runtime/thread_pool.hpp"

#include "runtime/row_parallel.hpp"

namespace willump::runtime {

namespace {

/// Poll the (locked) queue every this many spin iterations.
constexpr int kPollEvery = 64;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Per-run_all completion state. Heap-allocated and shared with every
/// enqueued wrapper so a worker finishing the last task can safely notify
/// even after the calling thread has already observed completion via the
/// spin path and returned.
struct TaskGroup {
  std::atomic<std::size_t> remaining{0};
  std::mutex mu;
  std::condition_variable done_cv;
  std::exception_ptr first_error;

  void run(std::function<void()>& task) {
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (!first_error) first_error = std::current_exception();
    }
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last task: wake a caller that fell back to blocking.
      std::lock_guard<std::mutex> lock(mu);
      done_cv.notify_all();
    }
  }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads, int spin_rounds)
    : spin_rounds_(spin_rounds < 0 ? 0 : spin_rounds) {
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    // Holding mu_ while setting stop_ closes the window where a worker has
    // evaluated the wait predicate (stop_ false, queue empty) but not yet
    // blocked: it would miss this notify and sleep through the join.
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true);
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::try_pop(std::function<void()>& task) {
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock() || queue_.empty()) return false;
  task = std::move(queue_.front());
  queue_.pop();
  return true;
}

void ThreadPool::enqueue(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(fn));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  // Tasks are already one share of a parallel call: batch calls inside one
  // run serially instead of starting row helpers of their own.
  mark_serial_thread();
  for (;;) {
    std::function<void()> task;
    bool got = false;

    // Short backoff: poll briefly for the next task of a tight pointwise
    // loop, then park on the condition variable instead of burning a core.
    for (int i = 0; i < spin_rounds_ && !got; ++i) {
      if (i % kPollEvery == 0) {
        if (stop_.load(std::memory_order_relaxed)) break;
        got = try_pop(task);
      }
      if (!got) cpu_relax();
    }

    if (!got) {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_.load() || !queue_.empty(); });
      if (queue_.empty()) {
        // stop_ set and nothing left to drain: exit. Draining first keeps
        // every submit() future satisfied through shutdown.
        if (stop_.load()) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    // Queued items capture their own error handling (TaskGroup::run for
    // run_all tasks, packaged_task for submit tasks), so a plain call
    // suffices and nothing a task throws can kill the worker.
    task();
  }
}

void ThreadPool::run_all(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  auto group = std::make_shared<TaskGroup>();
  group->remaining.store(tasks.size(), std::memory_order_relaxed);
  {
    // Keep the last task for the calling thread; enqueue the rest. The
    // wrappers reference `tasks` elements directly, which stay alive
    // because this call does not return before remaining hits zero.
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i + 1 < tasks.size(); ++i) {
      queue_.push([group, t = &tasks[i]] { group->run(*t); });
    }
  }
  cv_.notify_all();

  group->run(tasks.back());

  // Short backoff for stragglers, then block on the group CV if they are
  // genuinely slow — same polling budget as the worker idle loop.
  for (int i = 0; i < spin_rounds_; ++i) {
    if (group->remaining.load(std::memory_order_acquire) == 0) break;
    cpu_relax();
  }
  if (group->remaining.load(std::memory_order_acquire) != 0) {
    std::unique_lock<std::mutex> lock(group->mu);
    group->done_cv.wait(lock, [&group] {
      return group->remaining.load(std::memory_order_acquire) == 0;
    });
  }

  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(group->mu);
    err = group->first_error;
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace willump::runtime
