#pragma once
// pml::util::TaskPool — the process-lifetime thread pool behind every
// fan-out in the evaluation stack.
//
// It is the one fan-out primitive: the verify, activity and fault batch
// loops, the precision search, SVM training and the Table I design
// builds all call run_group directly.  Spawning and joining fresh
// std::threads per fan-out is first-order overhead once the SWAR/AVX
// kernels make small batches sub-millisecond, and a
// core-oversubscription hazard once svc::SweepService's worker seats
// stack on top of the per-evaluation fan-outs.  The pool replaces that
// with one lazily-started set of worker threads that live for the
// process:
//
//   * One FIFO queue of tasks, guarded by the pool mutex.  Every
//     submission, from a pool worker or any other thread, pushes to its
//     back and wakes the parked workers; workers pop the front and run
//     the task unlocked.  Pool tasks run for tens of microseconds to
//     seconds, so one lock per task is noise.
//   * Idle workers park on a condition variable; an idle pool costs
//     nothing but memory.
//   * Fan-outs are *groups*: run_group(n, ...) pushes n-1 tickets and
//     runs slots on the calling thread too.  Slots are fungible (usually
//     claim loops over a shared atomic counter), so the caller never
//     blocks while unclaimed slots remain — it claims them itself.
//     That makes nested submission deadlock-free by construction: a pool
//     worker that fans out again executes its own group's slots inline if
//     no sibling picks them up.
//   * A slot that throws stops nothing by itself: its siblings finish
//     their claims (cancellation stays prompt because every claim loop
//     checks the same util::CancellationToken), and the first exception
//     is rethrown on the submitting thread after every started slot has
//     finished.  A failed submission revokes the unstarted slots, waits
//     out the started ones and rethrows.
//   * Detached tasks (submit_detached) back svc::SweepService's worker
//     seats, so service jobs and per-evaluation fan-outs share one
//     thread budget instead of multiplying.
//
// Determinism: slots receive dense indices 0..n-1 via an atomic claim
// counter, and every caller that merges per-slot results does so by slot
// index, never by execution order — results are independent of which
// worker runs which slot and of the order tickets are taken (proven by the
// thread-count-invariance tests and tests/test_util_task_pool.cpp).
//
// Sizing: max(2, std::thread::hardware_concurrency()) workers, override
// with PML_POOL_THREADS.  The floor of two keeps progress when a test
// gate parks one task (the chaos/robustness harnesses) on a single-core
// runner.  Threads start at the first submission and can be joined with
// stop(); the next submission restarts them.
//
// Observability: `pool.tasks` (slots + detached tasks executed),
// `pool.steals` (group slots claimed through a queued ticket, i.e. taken
// off the submitting thread), `pool.parked` (worker park events)
// counters, and every task body runs under an obs::TaskTrack so reused OS
// threads still render one trace track per task (see
// docs/observability.md).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "pml/obs/trace.hpp"

namespace pml::util {

class TaskPool {
 public:
  /// The shared process-wide pool (leaked singleton: outlives every
  /// static destructor, like the obs thread-name table).
  [[nodiscard]] static TaskPool& instance();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Worker-thread target (also the natural fan-out width for callers
  /// that pass num_threads = 0): max(2, hardware_concurrency), or the
  /// PML_POOL_THREADS override.  Fixed for the process lifetime.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Lifetime count of worker threads spawned.  A warm pool serving
  /// steady-state fan-outs never moves this — bench_task_pool gates on
  /// exactly that.
  [[nodiscard]] std::uint64_t threads_started() const noexcept;

  /// Join every worker thread.  Queued group tickets are drained before
  /// the workers exit; the pool restarts lazily at the next submission
  /// (tests/test_util_task_pool.cpp proves restart works).  Must not
  /// race in-flight submissions.
  void stop();

  /// Run `body(slot)` for slot = 0..slots-1 across the pool, returning
  /// when all have finished.  The calling thread executes slots too (all
  /// of them when every worker is busy — nested submission never
  /// deadlocks).  The first exception thrown by a slot is rethrown here
  /// after the group quiesces.  `label` names the per-task trace tracks.
  template <typename Body>
  void run_group(std::size_t slots, const char* label, Body&& body) {
    if (slots == 0) return;
    if (slots == 1) {  // inline, no pool touch: the zero-allocation path
      body(std::size_t{0});
      return;
    }
    using B = std::remove_reference_t<Body>;
    run_group_erased(
        slots, label,
        [](void* ctx, std::size_t slot) { (*static_cast<B*>(ctx))(slot); },
        const_cast<void*>(static_cast<const void*>(std::addressof(body))));
  }

  /// Queue `fn()` to run on some pool worker and return immediately.
  /// The callable is owned by the pool and destroyed after it runs; it
  /// must not throw (an escaping exception terminates, exactly like an
  /// unhandled exception on a dedicated std::thread).  `label` names the
  /// task's trace track.  Backs svc::SweepService's worker seats.
  template <typename Fn>
  void submit_detached(const char* label, Fn&& fn) {
    struct Node final : Task {
      std::decay_t<Fn> fn;
      const char* label;
      Node(const char* l, Fn&& f) : fn(std::forward<Fn>(f)), label(l) {
        run = &Node::execute;
      }
      static void execute(Task* t) {
        std::unique_ptr<Node> self(static_cast<Node*>(t));
        obs::TaskTrack track(self->label);
        TaskPool::note_task_executed();
        self->fn();
      }
    };
    submit_task(new Node(label, std::forward<Fn>(fn)));
  }

  // --- implementation plumbing (public for the .cpp internals only) ----------

  /// Common queue node: group tickets and detached tasks both are one.
  struct Task {
    void (*run)(Task*) = nullptr;
  };
  using GroupBody = void (*)(void* ctx, std::size_t slot);
  struct Shared;  // all mutable pool state, defined in task_pool.cpp

 private:
  TaskPool();
  ~TaskPool() = delete;  // leaked singleton; never destroyed

  void run_group_erased(std::size_t slots, const char* label, GroupBody body,
                        void* ctx);
  void submit_task(Task* task);
  /// Bumps the `pool.tasks` counter (out-of-line so the header does not
  /// depend on the metrics registry).
  static void note_task_executed() noexcept;

  Shared* s_;  // owned, never freed (singleton is leaked)
  std::size_t size_ = 0;
};

}  // namespace pml::util
