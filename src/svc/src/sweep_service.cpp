#include "pml/svc/sweep_service.hpp"

#include <algorithm>
#include <cstdio>
#include <new>
#include <stdexcept>
#include <utility>

#include "pml/chaos/fault_plan.hpp"
#include "pml/obs/manifest.hpp"
#include "pml/obs/metrics.hpp"
#include "pml/obs/trace.hpp"
#include "pml/util/alloc_hook.hpp"
#include "pml/util/cancellation.hpp"
#include "pml/util/task_pool.hpp"

namespace pml::svc {

namespace {

void digest_module(obs::Fnv1a& h, const netlist::Module& m) {
  // Structure only — the module name is presentation, not behavior.
  h.update_u64(m.num_nets());
  const auto& cells = m.cells();
  h.update_u64(cells.size());
  for (const netlist::Cell& c : cells) {
    h.update_u64(static_cast<std::uint64_t>(c.type));
    h.update_u64(static_cast<std::uint64_t>(c.in[0]));
    h.update_u64(static_cast<std::uint64_t>(c.in[1]));
    h.update_u64(static_cast<std::uint64_t>(c.in[2]));
    h.update_u64(static_cast<std::uint64_t>(c.out));
    h.update_u64(static_cast<std::uint64_t>(c.group));
    h.update_u64(c.dff_init ? 1 : 0);
  }
  for (const auto& ports : {m.input_ports(), m.output_ports()}) {
    h.update_u64(ports.size());
    for (const netlist::Port& p : ports) {
      h.update_u64(p.name.size());
      h.update(p.name);
      h.update_u64(p.nets.size());
      for (const auto net : p.nets) {
        h.update_u64(static_cast<std::uint64_t>(net));
      }
    }
  }
  h.update_u64(m.group_names().size());
  for (const std::string& g : m.group_names()) {
    h.update_u64(g.size());
    h.update(g);
  }
}

void digest_workload(obs::Fnv1a& h, const core::CircuitWorkload& w) {
  h.update_u64(w.feature_codes.size());
  for (const auto& row : w.feature_codes) {
    h.update_u64(row.size());
    for (const std::int64_t code : row) {
      h.update_u64(static_cast<std::uint64_t>(code));
    }
  }
  h.update_u64(w.expected_class.size());
  for (const int cls : w.expected_class) {
    h.update_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(cls)));
  }
}

// Only the options that can change a HardwareReport field participate.
// Threading knobs (verify.num_threads, power_threads) are deliberately
// excluded: the determinism contract of evaluate_circuit guarantees they
// cannot affect results, so requests differing only in thread counts share
// one cache entry.  validate_module likewise (validation can only throw,
// never change a result).  The SIMD `backend` knob is excluded for the
// same reason as the threading knobs: every lane-word backend is proven
// bit-identical to the u64 reference (tests/test_sim_backend.cpp), so a
// u64 request may legally hit a cache entry computed under AVX-512.
// Deadlines are service policy, not evaluation inputs, so they are
// excluded too.
void digest_options(obs::Fnv1a& h, const core::EvaluateOptions& o) {
  h.update_u64(o.power_samples);
  h.update_u64(o.require_bit_exact ? 1 : 0);
  h.update_u64(o.verify.max_mismatches);
  h.update_u64(o.optimize.enabled ? 1 : 0);
  h.update_u64(o.optimize.flow.size());
  h.update(o.optimize.flow);
}

/// "SweepService job #7 (key 00c3a1...)" — the attribution prefix every
/// service exception carries (satellite: failures in a wide sweep must be
/// traceable from what() alone).
std::string job_label(std::uint64_t id, std::uint64_t key) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "SweepService job #%llu (key %016llx)",
                static_cast<unsigned long long>(id),
                static_cast<unsigned long long>(key));
  return buf;
}

/// Estimated resident size of a cached entry: the Job record plus every
/// dynamic buffer the report owns.  An estimate, not an audit — the cache
/// budget is a pressure valve, not an accounting ledger.
std::size_t report_bytes(const core::HardwareReport& r) {
  std::size_t b = 0;
  b += r.dataset.capacity() + r.model.capacity() + r.opt_flow.capacity();
  b += r.groups.capacity() * sizeof(power::GroupReport);
  for (const auto& g : r.groups) b += g.name.capacity();
  b += r.opt_pass_times.capacity() * sizeof(opt::PassTiming);
  for (const auto& p : r.opt_pass_times) b += p.pass.capacity();
  return b;
}

/// Wrap an evaluation failure with the job label, preserving the original
/// message.  Service-typed exceptions are already labeled; non-std
/// exceptions pass through untouched (we cannot read their message).
std::exception_ptr enrich_error(std::uint64_t id, std::uint64_t key,
                                const std::exception_ptr& cause) {
  try {
    std::rethrow_exception(cause);
  } catch (const ServiceError&) {
    return cause;
  } catch (const std::exception& e) {
    return std::make_exception_ptr(
        JobError(job_label(id, key) + ": " + e.what()));
  } catch (...) {
    return cause;
  }
}

/// Whether a failure sticks in the cache.  Permanent failures do
/// (identical resubmits get the same verdict for free); transient ones
/// (chaos::TransientError, std::bad_alloc) do not — a later submit
/// deserves a fresh roll of the dice.
bool cacheable_failure(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const chaos::TransientError&) {
    return false;
  } catch (const std::bad_alloc&) {
    return false;
  } catch (...) {
    return true;
  }
}

}  // namespace

std::uint64_t SweepService::cache_key(const SweepRequest& request) {
  if (!request.module || !request.workload) {
    throw std::invalid_argument(
        "SweepService::cache_key: null module or workload");
  }
  obs::Fnv1a h;
  // Version tag: bump when the digest schema or evaluation semantics
  // change, so stale keys from older builds can never collide.
  h.update("pml.svc.v2");
  h.update_u64(static_cast<std::uint64_t>(
      static_cast<std::int64_t>(request.cycles_per_inference)));
  h.update_u64(request.flow.size());
  h.update(request.flow);
  digest_options(h, request.options);
  digest_module(h, *request.module);
  digest_workload(h, *request.workload);
  return h.digest();
}

SweepService::SweepService(const cells::CellLibrary& lib)
    : SweepService(lib, Options{}) {}

SweepService::SweepService(const cells::CellLibrary& lib, Options options)
    : lib_(lib),
      options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock
                                       : &util::steady_clock()) {
  if (options_.num_workers == 0) options_.num_workers = 1;
  for (std::size_t i = 0; i < options_.num_workers; ++i) {
    contexts_.emplace_back();
    free_slots_.push_back(i);
  }
  // No threads are created here: worker seats are detached tasks on the
  // shared util::TaskPool, scheduled on demand by submit() and retired
  // when the queue drains, so an idle service costs nothing.
}

SweepService::~SweepService() {
  stop(StopMode::kDrain);
  // Let in-flight wait_outcome() calls leave the condition variable
  // before the members are destroyed (destruct-while-waiting safety).
  std::unique_lock<std::mutex> lk(mu_);
  waiters_cv_.wait(lk, [this] { return waiters_ == 0; });
}

void SweepService::stop(StopMode mode) {
  std::unique_lock<std::mutex> lk(mu_);
  if (!stopping_) {
    stopping_ = true;
    if (mode == StopMode::kAbort) {
      // Fail everything still queued; waiters resolve immediately with
      // ServiceStopped instead of waiting for a drain.
      std::deque<std::shared_ptr<Job>> aborted;
      aborted.swap(queue_);
      for (const std::shared_ptr<Job>& job : aborted) {
        finish_job_locked(
            job, JobStatus::kFailed,
            std::make_exception_ptr(ServiceStopped(
                job_label(job->id, job->key) +
                ": service stopped before evaluation (stop-abort)")),
            /*cacheable=*/false);
      }
      // Running evaluations notice at their next checkpoint.
      for (const auto& [key, job] : jobs_) {
        if (job->state == JobState::kRunning) {
          job->cancel_flag.store(true, std::memory_order_release);
        }
      }
    }
  }
  // Quiesce.  Under kDrain the worker seats keep claiming until the
  // queue is empty (worker_task never checks stopping_); under kAbort the
  // queue was just failed and running jobs were asked to cancel.  Every
  // stop() racer waits on the same predicate, so double-stop is safe.
  done_cv_.wait(lk, [this] { return queue_.empty() && active_workers_ == 0; });
}

void SweepService::maybe_spawn_workers_locked() {
  // One seat per queued-job demand, up to num_workers.  Deliberately not
  // gated on stopping_: a kDrain stop still needs seats to finish the
  // queue (under kAbort the queue is already empty, so this no-ops).
  while (!queue_.empty() && !free_slots_.empty() &&
         active_workers_ < options_.num_workers) {
    const std::size_t slot = free_slots_.back();
    free_slots_.pop_back();
    ++active_workers_;
    try {
      util::TaskPool::instance().submit_detached(
          "svc.worker", [this, slot] { worker_task(slot); });
    } catch (...) {
      // Seat-spawn failure (task allocation or pool-thread spawn).  Undo
      // the reservation; any live seat will still drain the queue.  With
      // no live seat, fail every queued job rather than strand its
      // waiters — the next submit() retries scheduling from scratch.
      free_slots_.push_back(slot);
      --active_workers_;
      if (active_workers_ > 0) return;
      const std::exception_ptr spawn_error = std::current_exception();
      std::deque<std::shared_ptr<Job>> pending;
      pending.swap(queue_);
      for (const std::shared_ptr<Job>& job : pending) {
        finish_job_locked(job, JobStatus::kFailed,
                          enrich_error(job->id, job->key, spawn_error),
                          /*cacheable=*/false);
      }
      return;
    }
  }
}

void SweepService::worker_task(std::size_t slot) {
  core::EvalContext& ctx = contexts_[slot];
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (queue_.empty()) {
        // Nothing left to claim: retire the seat.  submit() schedules a
        // fresh one when the next job lands.
        free_slots_.push_back(slot);
        --active_workers_;
        done_cv_.notify_all();  // stop() waits for quiescence on done_cv_
        return;
      }
      job = queue_.front();
      queue_.pop_front();
      job->state = JobState::kRunning;
    }
    run_job(ctx, job);
  }
}

void SweepService::run_job(core::EvalContext& ctx,
                           const std::shared_ptr<Job>& job) {
  const util::CancellationToken token(&job->cancel_flag, job->deadline_abs_ns,
                                      clock_);
  // A job can be claimed already dead: cancelled while queued behind a
  // straggler, or with a deadline that expired before any worker got to
  // it.  Resolve it without spending an evaluation.
  if (token.cancel_requested()) {
    finish_job(job, JobStatus::kCancelled, nullptr, /*cacheable=*/false);
    return;
  }
  if (token.deadline_expired()) {
    finish_job(job, JobStatus::kTimeout, nullptr, /*cacheable=*/false);
    return;
  }
  try {
    const std::uint64_t ordinal =
        eval_ordinal_.fetch_add(1, std::memory_order_relaxed);
    if (test_hook_) test_hook_(ordinal);
    core::EvaluateOptions opts = job->request.options;
    // The service validated at submit(); workers run the lean path.
    opts.validate_module = false;
    opts.cancel = &token;
    if (!job->request.flow.empty()) {
      opts.optimize.enabled = true;
      opts.optimize.flow = job->request.flow;
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.evaluated;
    }
    core::evaluate_circuit_into(ctx, job->report, *job->request.module,
                                job->request.cycles_per_inference, lib_,
                                *job->request.workload, opts);
    util::disarm_alloc_failure();
    finish_job(job, JobStatus::kOk, nullptr, /*cacheable=*/true);
  } catch (const util::Cancelled& c) {
    util::disarm_alloc_failure();
    finish_job(job,
               c.reason() == util::Cancelled::Reason::kDeadline
                   ? JobStatus::kTimeout
                   : JobStatus::kCancelled,
               nullptr, /*cacheable=*/false);
  } catch (...) {
    // Disarm so an injected-but-unfired allocation failure can never
    // leak into the next job on this thread.
    util::disarm_alloc_failure();
    const std::exception_ptr error = std::current_exception();
    finish_job(job, JobStatus::kFailed, enrich_error(job->id, job->key, error),
               cacheable_failure(error));
  }
}

void SweepService::finish_job(const std::shared_ptr<Job>& job,
                              JobStatus status, std::exception_ptr error,
                              bool cacheable) {
  std::lock_guard<std::mutex> lk(mu_);
  finish_job_locked(job, status, std::move(error), cacheable);
}

void SweepService::finish_job_locked(const std::shared_ptr<Job>& job,
                                     JobStatus status,
                                     std::exception_ptr error,
                                     bool cacheable) {
  job->state = JobState::kDone;
  job->status = status;
  if (!error) {
    // Give timeout/cancel outcomes a ready-made typed exception so every
    // waiter (and wait_outcome inspector) sees a labeled error.
    if (status == JobStatus::kTimeout) {
      error = std::make_exception_ptr(
          JobTimeout(job_label(job->id, job->key) +
                     ": deadline exceeded before completion"));
    } else if (status == JobStatus::kCancelled) {
      error = std::make_exception_ptr(
          JobCancelled(job_label(job->id, job->key) + ": cancelled"));
    }
  }
  job->error = std::move(error);
  switch (status) {
    case JobStatus::kOk:
      break;
    case JobStatus::kFailed:
      ++stats_.errors;
      break;
    case JobStatus::kTimeout:
      ++stats_.timeouts;
      PML_OBS_COUNT("svc.jobs.timeout", 1);
      break;
    case JobStatus::kCancelled:
      ++stats_.cancelled;
      PML_OBS_COUNT("svc.jobs.cancelled", 1);
      break;
  }
  // Drop the request's shared ownership now that the outcome is recorded
  // — keeps module/workload lifetimes tied to the caller, not the cache.
  job->request.module.reset();
  job->request.workload.reset();
  const auto it = jobs_.find(job->key);
  const bool owns_entry = it != jobs_.end() && it->second == job;
  if (owns_entry) {
    if (cacheable) {
      job->bytes = sizeof(Job) + report_bytes(job->report);
      cache_bytes_ += job->bytes;
      lru_.push_front(job.get());
      job->lru_it = lru_.begin();
      job->in_lru = true;
      evict_over_budget_locked();
    } else {
      // Timeout / cancel / transient-failure outcomes do not stick: the
      // next identical submit re-runs.  Waiters still hold the record via
      // their ticket handle.
      jobs_.erase(it);
    }
  }
  done_cv_.notify_all();
}

void SweepService::evict_over_budget_locked() {
  if (options_.max_cache_bytes == 0) return;
  while (cache_bytes_ > options_.max_cache_bytes && !lru_.empty()) {
    Job* victim = lru_.back();
    lru_.pop_back();
    victim->in_lru = false;
    cache_bytes_ -= victim->bytes;
    ++stats_.cache_evictions;
    PML_OBS_COUNT("svc.cache.evictions", 1);
    // Outstanding tickets keep the record alive; the map entry (and its
    // reference) goes, so the key re-evaluates on its next submit.
    jobs_.erase(victim->key);
  }
}

bool SweepService::try_join_locked(std::uint64_t key, SweepTicket& out) {
  const auto it = jobs_.find(key);
  if (it == jobs_.end()) return false;
  const std::shared_ptr<Job>& job = it->second;
  if (job->state == JobState::kDone) {
    ++stats_.cache_hits;
    PML_OBS_COUNT("svc.cache.hits", 1);
    if (job->in_lru && job->lru_it != lru_.begin()) {
      lru_.splice(lru_.begin(), lru_, job->lru_it);  // touch: most recent
    }
  } else {
    ++stats_.inflight_deduped;
    PML_OBS_COUNT("svc.jobs.deduped", 1);
  }
  out = SweepTicket{key, job->id, job};
  return true;
}

SweepTicket SweepService::submit(SweepRequest request) {
  if (!request.module || !request.workload) {
    throw std::invalid_argument("SweepService::submit: null module/workload");
  }
  const std::uint64_t key = cache_key(request);
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) {
      throw ServiceStopped("SweepService::submit: service is stopped");
    }
    ++stats_.submitted;
    PML_OBS_COUNT("svc.jobs.submitted", 1);
    SweepTicket joined;
    if (try_join_locked(key, joined)) return joined;
  }
  // Validate outside the lock (it walks the whole netlist); a throw here
  // leaves the service untouched beyond the `submitted` count.
  if (const auto err = request.module->validate()) {
    throw std::runtime_error("SweepService::submit: invalid module: " + *err);
  }
  std::shared_ptr<Job> job = std::make_shared<Job>();
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) {
      throw ServiceStopped("SweepService::submit: service is stopped");
    }
    // Re-check after validation: an identical request may have landed
    // meanwhile.
    SweepTicket joined;
    if (try_join_locked(key, joined)) return joined;
    job->owner = this;
    job->id = ++next_job_id_;
    job->key = key;
    job->request = std::move(request);
    if (job->request.deadline_ns != 0) {
      job->deadline_abs_ns = clock_->now_ns() + job->request.deadline_ns;
    }
    jobs_.emplace(key, job);
    ++stats_.cache_misses;
    PML_OBS_COUNT("svc.cache.misses", 1);
    queue_.push_back(job);
    maybe_spawn_workers_locked();
  }
  return SweepTicket{key, job->id, job};
}

SweepOutcome SweepService::wait_outcome(const SweepTicket& ticket) {
  const auto job = std::static_pointer_cast<Job>(ticket.handle);
  if (!job || job->owner != this) {
    throw std::invalid_argument(
        "SweepService::wait: unknown ticket (not issued by this service)");
  }
  {
    std::unique_lock<std::mutex> lk(mu_);
    ++waiters_;
    done_cv_.wait(lk, [&job] { return job->state == JobState::kDone; });
    --waiters_;
    if (waiters_ == 0) waiters_cv_.notify_all();
  }
  // Once kDone the record is immutable and the ticket's shared_ptr keeps
  // it alive, so the copy can safely happen outside the lock — even if
  // the service is being destroyed right now.
  SweepOutcome out;
  out.status = job->status;
  out.error = job->error;
  if (job->status == JobStatus::kOk) out.report = job->report;
  return out;
}

core::HardwareReport SweepService::wait(const SweepTicket& ticket) {
  SweepOutcome out = wait_outcome(ticket);
  if (out.status == JobStatus::kOk) return std::move(out.report);
  std::rethrow_exception(out.error);
}

bool SweepService::cancel(const SweepTicket& ticket) {
  const auto job = std::static_pointer_cast<Job>(ticket.handle);
  if (!job || job->owner != this) return false;
  std::lock_guard<std::mutex> lk(mu_);
  if (job->state == JobState::kDone) return false;
  job->cancel_flag.store(true, std::memory_order_release);
  if (job->state == JobState::kQueued) {
    // Still waiting for a worker: resolve it right here instead of
    // making a worker claim a corpse.
    const auto it = std::find(queue_.begin(), queue_.end(), job);
    if (it != queue_.end()) queue_.erase(it);
    finish_job_locked(job, JobStatus::kCancelled, nullptr,
                      /*cacheable=*/false);
  }
  return true;
}

core::HardwareReport SweepService::evaluate(SweepRequest request) {
  return wait(submit(std::move(request)));
}

std::vector<core::FlowSweepRow> SweepService::sweep_flows(
    std::shared_ptr<const netlist::Module> raw_module,
    int cycles_per_inference,
    std::shared_ptr<const core::CircuitWorkload> workload,
    const core::EvaluateOptions& base_options,
    const std::vector<std::string>& flows) {
  PML_OBS_SPAN("svc.sweep_flows");
  std::vector<SweepTicket> tickets;
  tickets.reserve(flows.size());
  for (const std::string& flow : flows) {
    SweepRequest req;
    req.module = raw_module;
    req.cycles_per_inference = cycles_per_inference;
    req.workload = workload;
    req.flow = flow;
    req.options = base_options;
    tickets.push_back(submit(std::move(req)));
  }
  std::vector<core::FlowSweepRow> rows;
  rows.reserve(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    core::FlowSweepRow row;
    row.flow = flows[i];
    row.hw = wait(tickets[i]);
    rows.push_back(std::move(row));
  }
  return rows;
}

SweepStats SweepService::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  SweepStats out = stats_;
  out.cache_entries = jobs_.size();
  out.cache_bytes = cache_bytes_;
  out.waiters = waiters_;
  return out;
}

}  // namespace pml::svc
