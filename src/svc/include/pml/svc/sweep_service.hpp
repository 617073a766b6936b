#pragma once
// Cached design-space sweep service: an async job queue over the
// hardware-evaluation core.
//
// Design-space exploration (Table I, quantization sweeps, flow trade-off
// tables) evaluates many (module, workload, flow, options) points, and
// real sweeps revisit points — the same raw design under the same flow
// shows up in the wide table, the per-flow table, and the Pareto scan.
// The service makes revisits free:
//
//   * every request is content-hashed (obs::Fnv1a over the full netlist,
//     workload, flow name, and result-relevant options) into a cache key;
//   * identical in-flight requests are deduplicated (the second submit
//     rides the first evaluation);
//   * completed HardwareReports are cached by key, so a warm re-sweep is
//     pure lookup — and because evaluate_circuit is deterministic in its
//     inputs, a cache hit is byte-identical to a fresh evaluation (the
//     wall-clock opt_seconds/opt_pass_times fields are whatever the one
//     real evaluation measured).
//
// Around the cache:
//
//   * **Deadlines & cancellation** — SweepRequest::deadline_ns starts a
//     per-job budget at submit; a util::CancellationToken built from the
//     job's cancel flag + deadline threads through evaluate_circuit_into's
//     phase boundaries and the verify/activity worker batch loops, so a
//     cancel() or an expired deadline aborts an evaluation mid-flight.
//     wait_outcome() reports JobStatus::{kOk,kFailed,kTimeout,kCancelled};
//     wait() maps non-kOk to typed exceptions.
//   * **Bounded cache** — Options::max_cache_bytes caps the byte-accounted
//     result cache; least-recently-used entries are evicted (waiters are
//     unaffected: tickets hold the job record alive independently of the
//     cache).  An evicted key re-evaluates on its next submit.  A failure
//     is cached like a result unless it is transient (chaos::TransientError
//     or std::bad_alloc), which the next identical submit re-runs.
//   * **Lifecycle** — stop(StopMode::kDrain) finishes queued work then
//     quiesces; stop(StopMode::kAbort) fails queued jobs with
//     ServiceStopped and requests cancellation of running ones.  Both are
//     idempotent and safe to race with waiters; the destructor drains.
//
// Jobs run on *worker seats*: up to Options::num_workers detached tasks
// on the shared util::TaskPool, scheduled on demand when jobs are queued
// and retired when the queue drains — the service owns no threads at
// all, so an idle service costs nothing and nested parallelism (service
// job -> per-evaluation verify/activity fan-out, which rides the same
// pool) composes against one fixed thread budget instead of
// oversubscribing cores.  Each seat owns one pooled core::EvalContext,
// so steady-state job evaluation rides the zero-allocation path (module
// validation runs once at submit, workers skip it).  Observability:
// `svc.jobs.submitted`, `svc.cache.hits`, `svc.cache.misses`,
// `svc.jobs.deduped`, `svc.jobs.timeout`, `svc.jobs.cancelled`,
// `svc.cache.evictions`, and stats().

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "pml/cells/library.hpp"
#include "pml/core/eval_context.hpp"
#include "pml/core/evaluate.hpp"
#include "pml/core/flow.hpp"
#include "pml/core/hardware_report.hpp"
#include "pml/netlist/module.hpp"
#include "pml/util/clock.hpp"

namespace pml::svc {

/// Terminal state of a job.
enum class JobStatus : std::uint8_t {
  kOk,         ///< evaluation completed; report is valid
  kFailed,     ///< evaluation threw
  kTimeout,    ///< deadline expired before completion
  kCancelled,  ///< cancel() (or stop-abort) interrupted the job
};

/// How stop() treats work still in the queue.
enum class StopMode : std::uint8_t {
  kDrain,  ///< finish every queued job, then join the pool
  kAbort,  ///< fail queued jobs (ServiceStopped) and cancel running ones
};

/// Base of every service-originated exception.  The what() string of any
/// exception rethrown by wait() carries the job id and the 16-hex-digit
/// cache-key digest ("SweepService job #7 (key 00c3…): …") so a failure
/// in a thousand-point sweep is attributable from the message alone.
class ServiceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};
/// submit() after stop(), or a queued job aborted by stop(kAbort).
class ServiceStopped : public ServiceError {
 public:
  using ServiceError::ServiceError;
};
/// wait() on a job whose deadline expired.
class JobTimeout : public ServiceError {
 public:
  using ServiceError::ServiceError;
};
/// wait() on a cancelled job.
class JobCancelled : public ServiceError {
 public:
  using ServiceError::ServiceError;
};
/// wait() on a failed job: wraps the evaluation's exception message with
/// the job label (still a std::runtime_error, so existing catch sites
/// keep working).
class JobError : public ServiceError {
 public:
  using ServiceError::ServiceError;
};

/// One design-space point: everything evaluate_circuit needs, by
/// shared_ptr so a sweep over one design or one workload shares rather
/// than copies.  The pointees must not be mutated while a job referencing
/// them is queued or running (the cache key hashed their content).
struct SweepRequest {
  std::shared_ptr<const netlist::Module> module;
  int cycles_per_inference = 1;
  std::shared_ptr<const core::CircuitWorkload> workload;
  /// Optional flow-recipe override: non-empty forces
  /// options.optimize.enabled = true and options.optimize.flow = flow for
  /// this job (sweep_flows' per-row rewrite).  Empty uses `options` as
  /// given.
  std::string flow;
  core::EvaluateOptions options;
  /// Per-job completion budget, relative to submit(), on the service
  /// clock.  0 = no deadline.  Deliberately NOT part of the cache key: a
  /// deadline cannot change a result, only whether one arrives.
  std::uint64_t deadline_ns = 0;
};

/// Handle returned by submit(); redeem with wait() / wait_outcome().
/// The key is the content digest of the request — equal keys mean "same
/// evaluation".  The handle pins the job record (report, status, error)
/// for this waiter even after cache eviction.
struct SweepTicket {
  std::uint64_t key = 0;
  std::uint64_t id = 0;  ///< service-unique job id
  std::shared_ptr<void> handle;
};

/// wait_outcome()'s no-throw result: exactly one of report (kOk) or
/// error (every other status) is meaningful.
struct SweepOutcome {
  JobStatus status = JobStatus::kOk;
  core::HardwareReport report;
  std::exception_ptr error;
};

/// Cumulative service counters (monotonic since construction).
struct SweepStats {
  std::uint64_t submitted = 0;       ///< submit() calls
  std::uint64_t evaluated = 0;       ///< evaluations that ran
  std::uint64_t cache_hits = 0;      ///< submits answered from the cache
  std::uint64_t cache_misses = 0;    ///< submits that enqueued a new job
  std::uint64_t inflight_deduped = 0;  ///< submits that joined a live job
  std::uint64_t errors = 0;          ///< jobs that finished kFailed
  std::uint64_t cache_entries = 0;   ///< distinct keys known (any state)
  std::uint64_t timeouts = 0;        ///< jobs that finished kTimeout
  std::uint64_t cancelled = 0;       ///< jobs that finished kCancelled
  std::uint64_t cache_bytes = 0;     ///< current byte-accounted cache size
  std::uint64_t cache_evictions = 0;  ///< entries LRU-evicted
  /// Gauge (not monotonic): threads currently blocked in wait_outcome().
  std::uint64_t waiters = 0;
  /// Fraction of resubmitted work answered without a fresh evaluation.
  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = cache_hits + inflight_deduped + cache_misses;
    return total != 0
               ? static_cast<double>(cache_hits + inflight_deduped) /
                     static_cast<double>(total)
               : 0.0;
  }
};

class SweepService {
 public:
  struct Options {
    /// Evaluation worker seats.  1 (the default) evaluates jobs one at a
    /// time; N runs up to N concurrent evaluations, each seat a detached
    /// task on the shared util::TaskPool with its own pooled EvalContext.
    std::size_t num_workers = 1;
    /// Result-cache budget (bytes, estimated per entry from report
    /// capacities).  0 = unbounded.  Exceeding it evicts LRU entries.
    std::size_t max_cache_bytes = 0;
    /// Time source for deadlines (and test-injected delays).  Null uses
    /// util::steady_clock(); tests inject a util::ManualClock.  Borrowed;
    /// must outlive the service.
    util::Clock* clock = nullptr;
  };

  /// The library is borrowed and must outlive the service.
  explicit SweepService(const cells::CellLibrary& lib);
  SweepService(const cells::CellLibrary& lib, Options options);
  /// Equivalent to stop(StopMode::kDrain), then additionally waits for
  /// every in-flight wait()/wait_outcome() call to return before the
  /// members are torn down (destruct-while-waiting is defined behavior
  /// as long as the wait began before the destructor).
  ~SweepService();
  SweepService(const SweepService&) = delete;
  SweepService& operator=(const SweepService&) = delete;

  /// Content digest of a request: module structure (cells, ports, groups
  /// — the module *name* is excluded, it cannot affect results), workload
  /// samples, flow override, and every result-relevant evaluation option.
  /// Deterministic across runs and platforms.  Exposed for the cache-key
  /// tests and for callers that want to correlate artifacts.
  [[nodiscard]] static std::uint64_t cache_key(const SweepRequest& request);

  /// Enqueue (or join) the evaluation of `request` and return its ticket.
  /// Validates the module up front (throws std::runtime_error on an
  /// invalid module, std::invalid_argument on null module/workload,
  /// ServiceStopped after stop()); workers then skip re-validation.  A
  /// request whose key matches a completed job is a cache hit (no work
  /// enqueued); one matching a queued/running job joins it.
  SweepTicket submit(SweepRequest request);

  /// Block until the ticket's job completes and return a copy of its
  /// HardwareReport.  Non-kOk outcomes throw: the (label-wrapped)
  /// evaluation exception for kFailed, JobTimeout / JobCancelled for
  /// the rest — every waiter of a failed job gets the same exception.
  /// Throws std::invalid_argument for a ticket this service never issued.
  [[nodiscard]] core::HardwareReport wait(const SweepTicket& ticket);

  /// wait() without the throw: block until done and return the status
  /// plus whichever of report/error applies.  Still throws
  /// std::invalid_argument for foreign tickets (that is caller misuse, not
  /// a job outcome).
  [[nodiscard]] SweepOutcome wait_outcome(const SweepTicket& ticket);

  /// Request cancellation: a queued job resolves kCancelled immediately;
  /// a running one stops at its next cancellation checkpoint.  Returns
  /// false when there is nothing to cancel (already done, or a
  /// foreign/default ticket) — cancel() never throws.
  bool cancel(const SweepTicket& ticket);

  /// Stop the service (idempotent, safe from any thread; the first
  /// caller's mode wins).  kDrain completes queued jobs first; kAbort
  /// fails them with ServiceStopped and requests cancellation of running
  /// evaluations.  Either way every ticket resolves — no waiter is left
  /// hanging — and subsequent submit() calls throw ServiceStopped.
  void stop(StopMode mode = StopMode::kDrain);

  /// submit() + wait(): the drop-in synchronous replacement for
  /// evaluate_circuit with caching on top.
  [[nodiscard]] core::HardwareReport evaluate(SweepRequest request);

  /// The flow-sweep driver: evaluate `raw_module` (as generated,
  /// optimizer off) once per flow recipe and return the rows in `flows`
  /// order.  All rows are submitted up front, so they pipeline across
  /// workers, and the cache makes repeat sweeps free.  Every row is
  /// verified bit-exact against the workload (a mismatch throws, as in
  /// evaluate_circuit).
  [[nodiscard]] std::vector<core::FlowSweepRow> sweep_flows(
      std::shared_ptr<const netlist::Module> raw_module,
      int cycles_per_inference,
      std::shared_ptr<const core::CircuitWorkload> workload,
      const core::EvaluateOptions& base_options,
      const std::vector<std::string>& flows = {"none", "area", "energy",
                                               "balanced"});

  [[nodiscard]] SweepStats stats() const;

  /// Test-only seam: called with the evaluation ordinal (a process-order
  /// counter) at the start of every evaluation, on the evaluating thread.
  /// An exception it throws fails the job like an evaluation error.
  /// Tests hold a worker hostage here, or fire a chaos::FaultPlan with
  /// `plan.before_evaluation(ordinal, clock)`.  Install before the first
  /// submit — installation is not synchronized against running workers.
  void set_test_hook(std::function<void(std::uint64_t)> hook) {
    test_hook_ = std::move(hook);
  }

 private:
  enum class JobState { kQueued, kRunning, kDone };
  struct Job {
    SweepService* owner = nullptr;
    std::uint64_t id = 0;
    std::uint64_t key = 0;
    SweepRequest request;
    std::uint64_t deadline_abs_ns = 0;  ///< on the service clock; 0 = none
    std::atomic<bool> cancel_flag{false};
    JobState state = JobState::kQueued;
    JobStatus status = JobStatus::kOk;
    core::HardwareReport report;
    std::exception_ptr error;
    // Cache residency (guarded by mu_): only kDone jobs whose outcome is
    // cacheable (kOk, or kFailed on a non-transient error) enter the LRU.
    bool in_lru = false;
    std::size_t bytes = 0;
    std::list<Job*>::iterator lru_it;
  };

  /// Schedule detached pool tasks (one per free worker seat) while jobs
  /// are queued; seats drain the queue and retire.  mu_ held.
  void maybe_spawn_workers_locked();
  /// One seat's drain loop, running as a TaskPool detached task.
  void worker_task(std::size_t slot);
  void run_job(core::EvalContext& ctx, const std::shared_ptr<Job>& job);
  void finish_job(const std::shared_ptr<Job>& job, JobStatus status,
                  std::exception_ptr error, bool cacheable);
  void finish_job_locked(const std::shared_ptr<Job>& job, JobStatus status,
                         std::exception_ptr error, bool cacheable);
  void evict_over_budget_locked();
  /// Cache-hit / in-flight-dedup check: fills `out` with the joined
  /// ticket (and touches the LRU), or returns false when the key is
  /// unknown.  mu_ held.
  [[nodiscard]] bool try_join_locked(std::uint64_t key, SweepTicket& out);

  const cells::CellLibrary& lib_;
  Options options_;
  util::Clock* clock_;

  mutable std::mutex mu_;
  std::condition_variable done_cv_;     ///< job done or a seat retired
  std::condition_variable waiters_cv_;  ///< waiters_ hit zero (destructor)
  std::unordered_map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::deque<std::shared_ptr<Job>> queue_;  ///< submission order
  std::list<Job*> lru_;  ///< cacheable kDone jobs, most recent first
  std::size_t cache_bytes_ = 0;
  SweepStats stats_;
  std::uint64_t next_job_id_ = 0;
  std::size_t waiters_ = 0;  ///< threads inside wait_outcome()
  bool stopping_ = false;

  /// One pooled evaluation context per worker seat (stable addresses).
  std::deque<core::EvalContext> contexts_;
  /// Seat indices not currently running a worker task (guards contexts_:
  /// a seat's context is touched only by the task holding the seat).
  std::vector<std::size_t> free_slots_;
  std::size_t active_workers_ = 0;  ///< seats with a scheduled/running task
  /// Process-order evaluation counter (the test-hook ordinal).
  std::atomic<std::uint64_t> eval_ordinal_{0};

  std::function<void(std::uint64_t)> test_hook_;
};

}  // namespace pml::svc
