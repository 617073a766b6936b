// Deterministic fault-injection (chaos) suite for svc::SweepService:
// every robustness mechanism — deadlines, cancellation, bounded caching,
// transient-failure caching, stop modes, destruct-while-waiting — proven
// without a single real sleep.  Time is a util::ManualClock; worker
// scheduling is pinned with an ordinal gate on the service's test hook;
// faults come from a chaos::FaultPlan fired from the same hook.
// Same-seed runs must produce identical status sequences (asserted
// below), which is what makes this suite safe for the ASan/TSan CI legs.
// A last walk fails every allocation of a cold evaluation in turn and
// proves the pooled EvalContext recovers from each.

#include "pml/util/alloc_hook.hpp"

PML_INSTALL_COUNTING_ALLOC_HOOK;

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pml/arch/sequential_svm.hpp"
#include "pml/chaos/fault_plan.hpp"
#include "pml/core/eval_context.hpp"
#include "pml/core/evaluate.hpp"
#include "pml/core/fault_campaign.hpp"
#include "pml/quant/svm_quant.hpp"
#include "pml/svc/sweep_service.hpp"
#include "pml/util/cancellation.hpp"
#include "pml/util/clock.hpp"
#include "report_test_util.hpp"

namespace pml::svc {
namespace {

constexpr std::uint64_t kMs = 1'000'000;  // ns per millisecond

quant::QuantizedSvm tiny_model() {
  quant::QuantizedSvm q;
  q.strategy = ml::MulticlassStrategy::kOneVsRest;
  q.num_classes = 3;
  q.input_format = quant::input_format(3);
  q.weight_format =
      fixed::FixedFormat{.total_bits = 4, .frac_bits = 3, .is_signed = true};
  q.classifiers = {quant::QuantizedClassifier{{3, -2}, 1},
                   quant::QuantizedClassifier{{-1, 4}, 0},
                   quant::QuantizedClassifier{{2, 2}, -3}};
  return q;
}

std::shared_ptr<core::CircuitWorkload> tiny_workload(
    const quant::QuantizedSvm& q) {
  auto wl = std::make_shared<core::CircuitWorkload>();
  for (std::int64_t a = 0; a <= 7; ++a) {
    for (std::int64_t b = 0; b <= 7; ++b) {
      wl->feature_codes.push_back({a, b});
      wl->expected_class.push_back(q.predict_codes({a, b}));
    }
  }
  return wl;
}

/// A request whose cache key is a function of `variant` (power_samples is
/// part of the option digest), so tests mint distinct keys cheaply while
/// sharing one module and workload.
SweepRequest tiny_request(std::size_t variant = 0) {
  static const auto shared = [] {
    const auto q = tiny_model();
    auto circuit = arch::build_sequential_svm(q);
    return std::make_pair(
        std::make_shared<const netlist::Module>(std::move(circuit.module)),
        std::make_pair(circuit.cycles_per_inference, tiny_workload(q)));
  }();
  SweepRequest req;
  req.module = shared.first;
  req.cycles_per_inference = shared.second.first;
  req.workload = shared.second.second;
  req.options.power_samples = 16 + variant;
  return req;
}

/// Deterministic scheduling lever: installed as the service test hook, it
/// blocks the evaluating thread at held ordinals until released, and lets
/// tests wait until a given ordinal has been *entered* (i.e. the worker
/// has claimed the job and is parked inside the evaluation).
class OrdinalGate {
 public:
  std::function<void(std::uint64_t)> hook() {
    return [this](std::uint64_t ordinal) { enter(ordinal); };
  }
  void hold(std::uint64_t ordinal) {
    const std::lock_guard<std::mutex> lock(mu_);
    held_.insert(ordinal);
  }
  void release(std::uint64_t ordinal) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      held_.erase(ordinal);
    }
    cv_.notify_all();
  }
  void release_all() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      held_.clear();
    }
    cv_.notify_all();
  }
  void wait_entered(std::uint64_t ordinal) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_.count(ordinal) != 0; });
  }

 private:
  void enter(std::uint64_t ordinal) {
    std::unique_lock<std::mutex> lock(mu_);
    entered_.insert(ordinal);
    cv_.notify_all();
    cv_.wait(lock, [&] { return held_.count(ordinal) == 0; });
  }
  std::mutex mu_;
  std::condition_variable cv_;
  std::set<std::uint64_t> held_;
  std::set<std::uint64_t> entered_;
};

/// A service test hook that fires `plan` (borrowed, like `clock`).
std::function<void(std::uint64_t)> fault_hook(const chaos::FaultPlan& plan,
                                              util::Clock& clock) {
  return [&plan, &clock](std::uint64_t ordinal) {
    plan.before_evaluation(ordinal, clock);
  };
}

// --- fault kinds, one by one ----------------------------------------------

TEST(SvcChaos, InjectedThrowFailsWithLabeledErrorAndIsNotCached) {
  const auto lib = cells::CellLibrary::egfet();
  util::ManualClock clock;
  SweepService::Options opts;
  opts.clock = &clock;
  SweepService service(lib, opts);
  chaos::FaultPlan plan;
  plan.throw_at(0);  // job #1's evaluation
  service.set_test_hook(fault_hook(plan, clock));

  const SweepTicket ticket = service.submit(tiny_request());
  try {
    (void)service.wait(ticket);
    FAIL() << "expected JobError";
  } catch (const JobError& e) {
    const std::string what = e.what();
    // Job id + 16-hex key digest + original message.
    EXPECT_NE(what.find("SweepService job #1"), std::string::npos) << what;
    EXPECT_NE(what.find("(key "), std::string::npos) << what;
    EXPECT_NE(what.find("chaos: injected transient failure"),
              std::string::npos)
        << what;
  }
  EXPECT_EQ(plan.fired(), 1u);
  SweepStats stats = service.stats();
  EXPECT_EQ(stats.errors, 1u);
  // The hook threw before reaching the evaluator.
  EXPECT_EQ(stats.evaluated, 0u);
  // A transient outcome must NOT stick in the cache: the same request
  // re-runs (ordinal 1 is clean) and succeeds.
  EXPECT_EQ(stats.cache_entries, 0u);
  const core::HardwareReport rep = service.evaluate(tiny_request());
  EXPECT_TRUE(rep.verified);
  stats = service.stats();
  EXPECT_EQ(stats.cache_misses, 2u);  // the resubmit was a fresh job
  EXPECT_EQ(stats.cache_entries, 1u);
}

TEST(SvcChaos, AllocationFailureInsideEvaluationIsNotCached) {
  const auto lib = cells::CellLibrary::egfet();
  util::ManualClock clock;
  SweepService::Options opts;
  opts.clock = &clock;
  SweepService service(lib, opts);
  chaos::FaultPlan plan;
  // The 50th allocation of evaluation 0 throws std::bad_alloc (a cold
  // evaluation allocates far more than that); evaluation 1 runs clean.
  plan.fail_alloc_at(0, 50);
  service.set_test_hook(fault_hook(plan, clock));

  EXPECT_EQ(service.wait_outcome(service.submit(tiny_request())).status,
            JobStatus::kFailed);
  SweepStats stats = service.stats();
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.cache_entries, 0u);
  // The resubmit re-evaluates on the same worker context and succeeds.
  EXPECT_TRUE(service.evaluate(tiny_request()).verified);
  stats = service.stats();
  EXPECT_EQ(stats.evaluated, 2u);  // both evaluations reached the evaluator
  EXPECT_EQ(stats.errors, 1u);
}

TEST(SvcChaos, DelayFaultExpiresDeadlineOnVirtualTime) {
  const auto lib = cells::CellLibrary::egfet();
  util::ManualClock clock;
  SweepService::Options opts;
  opts.clock = &clock;
  SweepService service(lib, opts);
  chaos::FaultPlan plan;
  plan.delay_at(0, 10 * kMs);  // a 10 ms straggler, in zero real time
  service.set_test_hook(fault_hook(plan, clock));

  SweepRequest req = tiny_request();
  req.deadline_ns = 5 * kMs;
  const SweepTicket ticket = service.submit(req);
  const SweepOutcome out = service.wait_outcome(ticket);
  EXPECT_EQ(out.status, JobStatus::kTimeout);
  ASSERT_TRUE(out.error != nullptr);
  EXPECT_THROW(std::rethrow_exception(out.error), JobTimeout);
  EXPECT_THROW((void)service.wait(ticket), JobTimeout);
  const SweepStats stats = service.stats();
  EXPECT_EQ(stats.timeouts, 1u);
  // A timeout is not a cacheable verdict: the key re-runs next time.
  EXPECT_EQ(stats.cache_entries, 0u);
}

// --- deadlines & cancellation ---------------------------------------------

TEST(SvcChaos, QueuedJobTimesOutWithoutSpendingAnEvaluation) {
  const auto lib = cells::CellLibrary::egfet();
  util::ManualClock clock;
  SweepService::Options opts;
  opts.clock = &clock;
  SweepService service(lib, opts);
  OrdinalGate gate;
  gate.hold(0);
  chaos::FaultPlan plan;
  plan.delay_at(0, 10 * kMs);  // job A straggles past B's deadline
  service.set_test_hook(
      [held = gate.hook(), fault = fault_hook(plan, clock)](std::uint64_t o) {
        held(o);
        fault(o);
      });

  const SweepTicket a = service.submit(tiny_request(0));
  SweepRequest req_b = tiny_request(1);
  req_b.deadline_ns = 5 * kMs;
  const SweepTicket b = service.submit(req_b);  // queued behind A
  gate.release(0);

  EXPECT_TRUE(service.wait(a).verified);
  EXPECT_EQ(service.wait_outcome(b).status, JobStatus::kTimeout);
  const SweepStats stats = service.stats();
  // B was resolved at claim time — only A ran the evaluator.
  EXPECT_EQ(stats.evaluated, 1u);
  EXPECT_EQ(stats.timeouts, 1u);
}

TEST(SvcChaos, DeadlineBoundaryIsExactOnManualClock) {
  const auto lib = cells::CellLibrary::egfet();
  util::ManualClock clock;
  SweepService::Options opts;
  opts.clock = &clock;
  SweepService service(lib, opts);
  OrdinalGate gate;
  service.set_test_hook(gate.hook());

  // Advancing virtual time to exactly the deadline while the job is
  // mid-evaluation trips the first phase checkpoint.
  gate.hold(0);
  SweepRequest req_a = tiny_request(0);
  req_a.deadline_ns = 5 * kMs;
  const SweepTicket a = service.submit(req_a);
  gate.wait_entered(0);
  clock.advance(5 * kMs);
  gate.release(0);
  EXPECT_EQ(service.wait_outcome(a).status, JobStatus::kTimeout);

  // One nanosecond short of the deadline: the job completes.
  gate.hold(1);
  SweepRequest req_b = tiny_request(1);
  req_b.deadline_ns = 5 * kMs;
  const SweepTicket b = service.submit(req_b);
  gate.wait_entered(1);
  clock.advance(5 * kMs - 1);
  gate.release(1);
  EXPECT_EQ(service.wait_outcome(b).status, JobStatus::kOk);
}

TEST(SvcChaos, CancelQueuedJobResolvesImmediately) {
  const auto lib = cells::CellLibrary::egfet();
  SweepService service(lib);
  OrdinalGate gate;
  gate.hold(0);
  service.set_test_hook(gate.hook());

  const SweepTicket a = service.submit(tiny_request(0));
  gate.wait_entered(0);  // A claimed: the queue is empty again
  const SweepTicket b = service.submit(tiny_request(1));
  EXPECT_TRUE(service.cancel(b));
  // Resolved without waiting for a worker (A is still held).
  const SweepOutcome out = service.wait_outcome(b);
  EXPECT_EQ(out.status, JobStatus::kCancelled);
  EXPECT_THROW(std::rethrow_exception(out.error), JobCancelled);
  EXPECT_FALSE(service.cancel(b));  // already done
  gate.release(0);
  EXPECT_TRUE(service.wait(a).verified);
  const SweepStats stats = service.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.evaluated, 1u);  // only A ran
}

TEST(SvcChaos, CancelRunningJobStopsAtNextCheckpoint) {
  const auto lib = cells::CellLibrary::egfet();
  SweepService service(lib);
  OrdinalGate gate;
  gate.hold(0);
  service.set_test_hook(gate.hook());

  const SweepTicket a = service.submit(tiny_request());
  gate.wait_entered(0);  // evaluation in flight (parked in the hook)
  EXPECT_TRUE(service.cancel(a));
  gate.release(0);  // evaluation proceeds into the first checkpoint
  try {
    (void)service.wait(a);
    FAIL() << "expected JobCancelled";
  } catch (const JobCancelled& e) {
    EXPECT_NE(std::string(e.what()).find("SweepService job #1"),
              std::string::npos);
  }
  EXPECT_EQ(service.stats().cancelled, 1u);
}

// --- bounded cache ---------------------------------------------------------

TEST(SvcChaos, CacheEvictionIsByteAccountedAndLru) {
  const auto lib = cells::CellLibrary::egfet();
  // Measure one entry's footprint on an unbounded service first.
  std::size_t entry_bytes = 0;
  {
    SweepService probe(lib);
    (void)probe.evaluate(tiny_request(0));
    entry_bytes = probe.stats().cache_bytes;
    ASSERT_GT(entry_bytes, 0u);
  }
  // Budget for two entries (same workload/flow => same footprint).
  SweepService::Options opts;
  opts.max_cache_bytes = 2 * entry_bytes + entry_bytes / 2;
  SweepService service(lib, opts);
  (void)service.evaluate(tiny_request(0));  // cache: [A]
  (void)service.evaluate(tiny_request(1));  // cache: [B, A]
  (void)service.evaluate(tiny_request(0));  // touch A: [A, B]
  SweepStats stats = service.stats();
  EXPECT_EQ(stats.cache_entries, 2u);
  EXPECT_EQ(stats.cache_bytes, 2 * entry_bytes);
  EXPECT_EQ(stats.cache_evictions, 0u);

  (void)service.evaluate(tiny_request(2));  // evicts LRU = B: [C, A]
  stats = service.stats();
  EXPECT_EQ(stats.cache_entries, 2u);
  EXPECT_EQ(stats.cache_bytes, 2 * entry_bytes);
  EXPECT_EQ(stats.cache_evictions, 1u);

  const std::uint64_t misses_before = stats.cache_misses;
  (void)service.evaluate(tiny_request(0));  // A survived the eviction: hit
  EXPECT_EQ(service.stats().cache_misses, misses_before);
  (void)service.evaluate(tiny_request(1));  // B was evicted: re-evaluates
  EXPECT_EQ(service.stats().cache_misses, misses_before + 1);
}

TEST(SvcChaos, TinyCacheBudgetStillServesWaiters) {
  const auto lib = cells::CellLibrary::egfet();
  SweepService::Options opts;
  opts.max_cache_bytes = 1;  // every entry evicts itself on insert
  SweepService service(lib, opts);
  // The ticket handle, not the cache, keeps the result alive for waiters.
  const SweepTicket t = service.submit(tiny_request());
  EXPECT_TRUE(service.wait(t).verified);
  EXPECT_TRUE(service.wait(t).verified);  // re-wait on the same ticket
  const SweepStats stats = service.stats();
  EXPECT_EQ(stats.cache_entries, 0u);
  EXPECT_EQ(stats.cache_bytes, 0u);
  EXPECT_EQ(stats.cache_evictions, 1u);
}

// --- lifecycle -------------------------------------------------------------

TEST(SvcChaos, StopDrainCompletesQueuedJobsAndRejectsNewOnes) {
  const auto lib = cells::CellLibrary::egfet();
  SweepService service(lib);
  const SweepTicket a = service.submit(tiny_request(0));
  const SweepTicket b = service.submit(tiny_request(1));
  service.stop(StopMode::kDrain);
  EXPECT_TRUE(service.wait(a).verified);
  EXPECT_TRUE(service.wait(b).verified);
  EXPECT_THROW((void)service.submit(tiny_request(2)), ServiceStopped);
  service.stop(StopMode::kDrain);  // double-stop is a no-op
  service.stop(StopMode::kAbort);  // even with a different mode
}

TEST(SvcChaos, StopAbortFailsQueuedJobsAndCancelsRunningOnes) {
  const auto lib = cells::CellLibrary::egfet();
  SweepService service(lib);
  OrdinalGate gate;
  gate.hold(0);
  service.set_test_hook(gate.hook());

  const SweepTicket a = service.submit(tiny_request(0));
  gate.wait_entered(0);  // A running (held)
  const SweepTicket b = service.submit(tiny_request(1));
  const SweepTicket c = service.submit(tiny_request(2));

  // stop() joins the pool, and the pool is parked in our gate — run it on
  // a side thread and release the gate once the queued jobs resolved.
  std::thread stopper([&] { service.stop(StopMode::kAbort); });
  for (const SweepTicket* t : {&b, &c}) {
    const SweepOutcome out = service.wait_outcome(*t);
    EXPECT_EQ(out.status, JobStatus::kFailed);
    try {
      std::rethrow_exception(out.error);
      FAIL() << "expected ServiceStopped";
    } catch (const ServiceStopped& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("service stopped before evaluation"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("(key "), std::string::npos) << what;
    }
  }
  gate.release_all();  // A proceeds into its first checkpoint and cancels
  stopper.join();
  EXPECT_EQ(service.wait_outcome(a).status, JobStatus::kCancelled);
  EXPECT_THROW((void)service.submit(tiny_request(3)), ServiceStopped);
  const SweepStats stats = service.stats();
  EXPECT_EQ(stats.errors, 2u);
  EXPECT_EQ(stats.cancelled, 1u);
}

TEST(SvcChaos, DestructWhileWaitingIsSafe) {
  const auto lib = cells::CellLibrary::egfet();
  OrdinalGate gate;
  gate.hold(0);
  auto service = std::make_unique<SweepService>(lib);
  service->set_test_hook(gate.hook());
  const SweepTicket t = service->submit(tiny_request());

  SweepOutcome out;
  std::thread waiter([&] { out = service->wait_outcome(t); });
  // The stats waiter-gauge makes "the waiter is inside wait_outcome"
  // observable, so the destruction below provably races a live waiter.
  while (service->stats().waiters == 0) std::this_thread::yield();
  gate.release_all();
  service.reset();  // drains the job, then waits for the waiter to leave
  waiter.join();
  EXPECT_EQ(out.status, JobStatus::kOk);
  EXPECT_TRUE(out.report.verified);
}

// --- determinism -----------------------------------------------------------

/// One full chaotic run: N distinct jobs through a single-worker service
/// under a seeded random fault plan and a virtual clock.  Returns the
/// status sequence in submission order.
std::vector<JobStatus> chaotic_run(std::uint64_t seed) {
  const auto lib = cells::CellLibrary::egfet();
  util::ManualClock clock;
  SweepService::Options opts;
  opts.clock = &clock;
  SweepService service(lib, opts);
  const chaos::FaultPlan plan =
      chaos::FaultPlan::random(seed, /*evaluations=*/12, /*fault_rate=*/0.5,
                               /*delay_ns=*/2 * kMs);
  service.set_test_hook(fault_hook(plan, clock));

  constexpr std::size_t kJobs = 6;
  std::vector<SweepTicket> tickets;
  for (std::size_t i = 0; i < kJobs; ++i) {
    SweepRequest req = tiny_request(i);
    req.deadline_ns = 100 * kMs;  // generous: delays alone cannot trip it
    tickets.push_back(service.submit(req));
  }
  std::vector<JobStatus> statuses;
  for (const SweepTicket& t : tickets) {
    statuses.push_back(service.wait_outcome(t).status);
  }
  return statuses;
}

TEST(SvcChaos, SameSeedRunsProduceIdenticalStatusSequences) {
  const std::vector<JobStatus> first = chaotic_run(42);
  const std::vector<JobStatus> second = chaotic_run(42);
  EXPECT_EQ(first, second);
  // The plan is not vacuous: at least one job must have survived (the
  // tiny circuit always verifies when it runs to completion).
  EXPECT_NE(std::count(first.begin(), first.end(), JobStatus::kOk), 0);
}

// --- direct evaluation-core injection --------------------------------------

TEST(SvcChaos, AllocationFailureAnywhereLeavesContextReusable) {
  // Fail the nth allocation of a cold evaluation for n = 1, 2, ... until
  // one runs clean.  After every abort, the same (half-torn) context must
  // produce the report a fresh context does.  Single-threaded verify and
  // power keep every allocation on this thread, where the armed
  // countdown lives.
  const auto lib = cells::CellLibrary::egfet();
  const SweepRequest req = tiny_request();
  core::EvaluateOptions opts = req.options;
  opts.verify.num_threads = 1;
  opts.power_threads = 1;
  const auto evaluate = [&](core::EvalContext& ctx, core::HardwareReport& rep) {
    core::evaluate_circuit_into(ctx, rep, *req.module,
                                req.cycles_per_inference, lib, *req.workload,
                                opts);
  };
  core::HardwareReport reference;
  {
    core::EvalContext fresh;
    evaluate(fresh, reference);
  }
  ASSERT_TRUE(reference.verified);

  bool saw_failure = false;
  bool saw_success = false;
  for (std::uint64_t nth = 1; !saw_success; ++nth) {
    core::EvalContext ctx;  // cold: every pool allocates on first use
    core::HardwareReport rep;
    util::arm_alloc_failure(nth);
    try {
      evaluate(ctx, rep);
      util::disarm_alloc_failure();
      saw_success = true;
    } catch (const std::bad_alloc&) {
      util::disarm_alloc_failure();
      saw_failure = true;
      evaluate(ctx, rep);
    }
    testutil::expect_reports_equal(rep, reference);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "context did not recover after allocation " << nth;
      break;
    }
  }
  // The walk must have exercised both outcomes.
  EXPECT_TRUE(saw_failure);
  EXPECT_TRUE(saw_success);
}

TEST(SvcChaos, CancellationTokenAbortsEvaluateAndFaultCampaign) {
  const auto lib = cells::CellLibrary::egfet();
  const SweepRequest req = tiny_request();

  std::atomic<bool> flag{true};  // pre-cancelled
  const util::CancellationToken token(&flag);
  core::EvaluateOptions opts = req.options;
  opts.cancel = &token;
  try {
    (void)core::evaluate_circuit(*req.module, req.cycles_per_inference, lib,
                                 *req.workload, opts);
    FAIL() << "expected util::Cancelled";
  } catch (const util::Cancelled& e) {
    EXPECT_EQ(e.reason(), util::Cancelled::Reason::kCancelled);
  }

  // Deadline-only token on a virtual clock, already expired.
  util::ManualClock clock(/*start_ns=*/10 * kMs);
  const util::CancellationToken expired(nullptr, /*deadline_ns=*/5 * kMs,
                                        &clock);
  opts.cancel = &expired;
  try {
    (void)core::evaluate_circuit(*req.module, req.cycles_per_inference, lib,
                                 *req.workload, opts);
    FAIL() << "expected util::Cancelled";
  } catch (const util::Cancelled& e) {
    EXPECT_EQ(e.reason(), util::Cancelled::Reason::kDeadline);
  }

  // The fault-campaign batch loop honors the same token.
  core::FaultCampaignOptions fopts;
  fopts.cancel = &token;
  const auto sets = core::enumerate_single_faults(*req.module);
  EXPECT_THROW((void)core::run_fault_campaign(*req.module,
                                              req.cycles_per_inference,
                                              *req.workload, sets, fopts),
               util::Cancelled);
}

}  // namespace
}  // namespace pml::svc
