#include "pml/util/task_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "pml/obs/metrics.hpp"

namespace pml::util {

namespace {

std::size_t resolve_pool_size() {
  if (const char* env = std::getenv("PML_POOL_THREADS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= 4096) {
      return static_cast<std::size_t>(v);
    }
  }
  // Floor of two: a single worker can be parked by a chaos/robustness
  // test gate while another task still needs to make progress.
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max<std::size_t>(2, hw == 0 ? 2 : hw);
}

/// One fan-out: n fungible slots handed out by an atomic claim counter.
/// The same GroupState* is pushed n-1 times as a ticket; the submitting
/// thread claims slots inline too, so tickets that pop after the group
/// finished are no-ops that only drop a reference.
struct GroupState final : TaskPool::Task {
  GroupState(std::size_t n, const char* l, TaskPool::GroupBody b, void* c)
      : body(b), ctx(c), label(l), num_slots(n) {
    run = &GroupState::execute;
  }

  /// Claim and run one slot; false when none remain.  `ticket` marks a
  /// claim made through a queued ticket, i.e. by a thread other than the
  /// submitter.  Exceptions from the body are captured (first one wins),
  /// never thrown.
  bool run_next(bool ticket = false) {
    const std::size_t slot = next_slot.fetch_add(1, std::memory_order_relaxed);
    if (slot >= num_slots) return false;
    {
      obs::TaskTrack track(label);
      PML_OBS_COUNT("pool.tasks", 1);
      if (ticket) PML_OBS_COUNT("pool.steals", 1);
      try {
        body(ctx, slot);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
    }
    finished.fetch_add(1, std::memory_order_acq_rel);
    {  // lock-then-notify pairs with the waiter's predicate re-check
      const std::lock_guard<std::mutex> lock(mu);
    }
    cv.notify_all();
    return true;
  }

  void release(std::int64_t n = 1) {
    if (refs.fetch_sub(n, std::memory_order_acq_rel) == n) delete this;
  }

  static void execute(TaskPool::Task* task) {
    auto* g = static_cast<GroupState*>(task);
    g->run_next(/*ticket=*/true);
    g->release();
  }

  const TaskPool::GroupBody body;
  void* const ctx;
  const char* const label;
  const std::size_t num_slots;
  std::atomic<std::size_t> next_slot{0};
  std::atomic<std::size_t> finished{0};
  std::atomic<std::int64_t> refs{0};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;  // first slot failure; written under mu
};

}  // namespace

struct TaskPool::Shared {
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  bool stopping = false;
  std::vector<std::thread> threads;
  std::deque<Task*> queue;  // group tickets and detached tasks, FIFO
  std::atomic<std::uint64_t> threads_started{0};
};

TaskPool& TaskPool::instance() {
  static TaskPool* pool = new TaskPool();  // leaked: outlives exit paths
  return *pool;
}

TaskPool::TaskPool() : s_(new Shared), size_(resolve_pool_size()) {}

std::uint64_t TaskPool::threads_started() const noexcept {
  return s_->threads_started.load(std::memory_order_relaxed);
}

void TaskPool::note_task_executed() noexcept { PML_OBS_COUNT("pool.tasks", 1); }

namespace {

/// Pop tasks in submission order and run them unlocked; park when the
/// queue is empty.  Exit only once stop() is under way and the queue has
/// drained, so tickets and detached tasks queued before stop() still run.
void worker_main(TaskPool::Shared& s) {
  std::unique_lock<std::mutex> lock(s.mu);
  for (;;) {
    if (!s.queue.empty()) {
      TaskPool::Task* t = s.queue.front();
      s.queue.pop_front();
      lock.unlock();
      t->run(t);
      lock.lock();
    } else if (s.stopping) {
      return;
    } else {
      PML_OBS_COUNT("pool.parked", 1);
      s.cv.wait(lock);
    }
  }
}

}  // namespace

void TaskPool::stop() {
  std::vector<std::thread> joinable;
  {
    const std::lock_guard<std::mutex> lock(s_->mu);
    if (!s_->started) return;
    s_->stopping = true;
    joinable.swap(s_->threads);
  }
  s_->cv.notify_all();
  for (std::thread& t : joinable) t.join();
  {
    const std::lock_guard<std::mutex> lock(s_->mu);
    s_->stopping = false;
    s_->started = false;
  }
}

void TaskPool::submit_task(Task* task) {
  // Start the workers if needed, queue, then wake every parked worker:
  // a group's n-1 tickets then cost one wake-up, not one per ticket.
  // Spawn failure with zero threads rethrows (nothing could run the
  // task); a partially-spawned pool is simply a smaller pool and keeps
  // the task.
  {
    const std::lock_guard<std::mutex> lock(s_->mu);
    if (!s_->started && !s_->stopping) {
      s_->threads.reserve(size_);
      try {
        for (std::size_t i = 0; i < size_; ++i) {
          s_->threads.emplace_back(worker_main, std::ref(*s_));
          s_->threads_started.fetch_add(1, std::memory_order_relaxed);
        }
      } catch (...) {
        if (s_->threads.empty()) throw;
      }
      s_->started = true;
    }
    s_->queue.push_back(task);
  }
  s_->cv.notify_all();
}

void TaskPool::run_group_erased(std::size_t slots, const char* label,
                                GroupBody body, void* ctx) {
  auto* g = new GroupState(slots, label, body, ctx);
  const std::size_t tickets = slots - 1;
  g->refs.store(static_cast<std::int64_t>(tickets) + 1,
                std::memory_order_relaxed);
  std::size_t pushed = 0;
  try {
    for (; pushed < tickets; ++pushed) submit_task(g);
  } catch (...) {
    // Revoke every unstarted slot, wait out the ones already claimed
    // (their bodies may reference the caller's stack), drop the refs of
    // the tickets that never made it into a queue, and rethrow: a failed
    // submission never strands a ticket or deadlocks.
    const std::size_t prev =
        g->next_slot.exchange(slots, std::memory_order_seq_cst);
    const std::size_t claimed = std::min(prev, slots);
    {
      std::unique_lock<std::mutex> lock(g->mu);
      g->cv.wait(lock, [&] {
        return g->finished.load(std::memory_order_acquire) >= claimed;
      });
    }
    g->release(static_cast<std::int64_t>(tickets - pushed) + 1);
    throw;
  }
  while (g->run_next()) {
  }
  {
    std::unique_lock<std::mutex> lock(g->mu);
    g->cv.wait(lock, [&] {
      return g->finished.load(std::memory_order_acquire) == slots;
    });
  }
  std::exception_ptr error = g->error;  // all writers are done
  g->release();
  if (error) std::rethrow_exception(error);
}

}  // namespace pml::util
