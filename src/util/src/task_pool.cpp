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

/// Chase-Lev work-stealing deque over Task pointers.  The owning worker
/// pushes and pops the bottom; thieves CAS the top.  Every slot is a
/// std::atomic and top/bottom use seq_cst, so there are no fences and no
/// non-atomic shared accesses for ThreadSanitizer to flag.  Grown arrays
/// are retired (not freed) until the deque dies: a thief that loaded the
/// old array still reads the correct task for its position, because grow
/// copies [top, bottom) and positions are never reused within an array
/// (push grows instead of wrapping onto a live position).
class StealDeque {
 public:
  StealDeque() : array_(new Array(64)) {}
  ~StealDeque() {
    delete array_.load(std::memory_order_relaxed);
    for (Array* a : retired_) delete a;
  }
  StealDeque(const StealDeque&) = delete;
  StealDeque& operator=(const StealDeque&) = delete;

  /// Owner only.
  void push_bottom(TaskPool::Task* task) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Array* a = array_.load(std::memory_order_relaxed);
    if (b - t >= static_cast<std::int64_t>(a->cap)) a = grow(a, t, b);
    a->slot(b).store(task, std::memory_order_relaxed);
    bottom_.store(b + 1, std::memory_order_seq_cst);
  }

  /// Owner only.  nullptr when empty (or lost the last element to a
  /// thief).
  TaskPool::Task* pop_bottom() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Array* a = array_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t > b) {  // empty
      bottom_.store(b + 1, std::memory_order_relaxed);
      return nullptr;
    }
    TaskPool::Task* task = a->slot(b).load(std::memory_order_relaxed);
    if (t == b) {  // last element: race thieves for it via the top CAS
      if (!top_.compare_exchange_strong(t, t + 1,
                                        std::memory_order_seq_cst)) {
        task = nullptr;  // a thief won
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return task;
  }

  /// Any thread.  nullptr when empty or the CAS race is lost.
  TaskPool::Task* steal_top() {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return nullptr;
    Array* a = array_.load(std::memory_order_acquire);
    TaskPool::Task* task = a->slot(t).load(std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst)) {
      return nullptr;
    }
    return task;
  }

 private:
  struct Array {
    explicit Array(std::size_t c)
        : cap(c), slots(new std::atomic<TaskPool::Task*>[c]) {}
    ~Array() { delete[] slots; }
    std::atomic<TaskPool::Task*>& slot(std::int64_t i) {
      return slots[static_cast<std::size_t>(i) & (cap - 1)];  // cap is 2^k
    }
    const std::size_t cap;
    std::atomic<TaskPool::Task*>* const slots;
  };

  Array* grow(Array* old, std::int64_t t, std::int64_t b) {
    Array* bigger = new Array(old->cap * 2);
    for (std::int64_t i = t; i < b; ++i) {
      bigger->slot(i).store(old->slot(i).load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    }
    retired_.push_back(old);  // owner-only; thieves may still read it
    array_.store(bigger, std::memory_order_release);
    return bigger;
  }

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Array*> array_;
  std::vector<Array*> retired_;
};

/// One fan-out: n fungible slots handed out by an atomic claim counter.
/// The same GroupState* is pushed n-1 times as a ticket; the submitting
/// thread claims slots inline too, so tickets that pop after the group
/// finished are no-ops that only drop a reference.
struct GroupState final : TaskPool::Task {
  GroupState(std::size_t n, const char* l, TaskPool::GroupBody b, void* c)
      : body(b), ctx(c), label(l), num_slots(n) {
    run = &GroupState::execute;
  }

  /// Claim and run one slot; false when none remain.  Exceptions from the
  /// body are captured (first one wins), never thrown.
  bool run_next() {
    const std::size_t slot = next_slot.fetch_add(1, std::memory_order_relaxed);
    if (slot >= num_slots) return false;
    {
      obs::TaskTrack track(label);
      PML_OBS_COUNT("pool.tasks", 1);
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
    g->run_next();
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

thread_local TaskPool* tl_pool = nullptr;
thread_local std::size_t tl_worker = 0;

}  // namespace

struct TaskPool::Shared {
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  bool stopping = false;
  std::vector<std::thread> threads;
  std::deque<Task*> injector;  // submissions from non-pool threads
  std::vector<StealDeque> deques;
  std::atomic<std::int64_t> pending{0};  // queued, not yet dequeued
  std::atomic<std::uint64_t> threads_started{0};

  explicit Shared(std::size_t n) : deques(n) {}
};

TaskPool& TaskPool::instance() {
  static TaskPool* pool = new TaskPool();  // leaked: outlives exit paths
  return *pool;
}

TaskPool::TaskPool() : size_(resolve_pool_size()) {
  s_ = new Shared(size_);
}

std::uint64_t TaskPool::threads_started() const noexcept {
  return s_->threads_started.load(std::memory_order_relaxed);
}

void TaskPool::note_task_executed() noexcept { PML_OBS_COUNT("pool.tasks", 1); }

namespace {

/// Workers drain their own deque, then the injector, then steal.
TaskPool::Task* find_task(TaskPool::Shared& s, std::size_t self) {
  if (TaskPool::Task* t = s.deques[self].pop_bottom()) return t;
  {
    const std::lock_guard<std::mutex> lock(s.mu);
    if (!s.injector.empty()) {
      TaskPool::Task* t = s.injector.front();
      s.injector.pop_front();
      return t;
    }
  }
  for (std::size_t i = 1; i < s.deques.size(); ++i) {
    const std::size_t victim = (self + i) % s.deques.size();
    if (TaskPool::Task* t = s.deques[victim].steal_top()) {
      PML_OBS_COUNT("pool.steals", 1);
      return t;
    }
  }
  return nullptr;
}

void worker_main(TaskPool* pool, TaskPool::Shared& s, std::size_t self) {
  tl_pool = pool;
  tl_worker = self;
  for (;;) {
    if (TaskPool::Task* t = find_task(s, self)) {
      s.pending.fetch_sub(1, std::memory_order_seq_cst);
      t->run(t);
      continue;
    }
    std::unique_lock<std::mutex> lock(s.mu);
    if (s.pending.load(std::memory_order_seq_cst) > 0) continue;  // rescan
    if (s.stopping) return;  // queues are quiesced: safe to exit
    PML_OBS_COUNT("pool.parked", 1);
    s.cv.wait(lock);
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
  // ensure_started + push, then wake.  Spawn failure with zero threads
  // rethrows (nothing can run the task); a partially-spawned pool is
  // simply a smaller pool and keeps the task.
  {
    std::lock_guard<std::mutex> lock(s_->mu);
    if (!s_->started && !s_->stopping) {
      s_->threads.reserve(size_);
      try {
        for (std::size_t i = 0; i < size_; ++i) {
          s_->threads.emplace_back(worker_main, this, std::ref(*s_), i);
          s_->threads_started.fetch_add(1, std::memory_order_relaxed);
        }
      } catch (...) {
        if (s_->threads.empty()) throw;
      }
      s_->started = true;
    }
  }
  if (tl_pool == this) {
    s_->deques[tl_worker].push_bottom(task);
  } else {
    const std::lock_guard<std::mutex> lock(s_->mu);
    s_->injector.push_back(task);
  }
  s_->pending.fetch_add(1, std::memory_order_seq_cst);
  {  // lock-then-notify: no parked worker can miss the wakeup
    const std::lock_guard<std::mutex> lock(s_->mu);
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
