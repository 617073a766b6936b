// Robustness contract bench for svc::SweepService: every gated metric
// here is a *deterministic* pass/fail probe (1.0 or 0.0) of one
// robustness mechanism, so the perf gate doubles as a release-blocking
// correctness gate that runs outside the unit-test binary, against the
// real service build.
//
// Four legs, each on a fresh service over a tiny sequential SVM:
//
//   1. *Deadline exactness* — on a ManualClock, advancing virtual time
//      to exactly the deadline must time the job out, and to one
//      nanosecond before must not (robust.deadline_exact_ok).
//   2. *Bounded cache* — with max_cache_bytes sized for ~2.5 entries,
//      a 4-point sweep must never exceed the byte budget and must evict
//      LRU entries (robust.cache_bounded_ok).
//   3. *Cancel responsiveness* — cancelling a running evaluation must
//      resolve kCancelled at the next checkpoint; the observed wall
//      latency is reported as info (robust.cancel_ms), the outcome is
//      gated (robust.cancel_ok).
//   4. *Straggler isolation* — with 2 workers and one job parked
//      indefinitely, every other job must still complete before the
//      straggler is released (robust.straggler_isolated_ok); per-wait
//      p99 wall time is info (robust.p99_wait_ms).
//
// Gate: bench/baselines/robustness_baseline.json (scripts/check_perf.py).
// Usage: bench_robustness [--quick] [--trace out.json] [--metrics]

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "pml/arch/sequential_svm.hpp"
#include "pml/quant/svm_quant.hpp"
#include "pml/svc/sweep_service.hpp"
#include "pml/util/clock.hpp"

using namespace pml;

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

/// Mint a request whose cache key depends on `variant` (power_samples is
/// part of the option digest) while sharing one module and workload.
svc::SweepRequest tiny_request(std::size_t variant = 0) {
  static const auto shared = [] {
    const auto q = tiny_model();
    auto circuit = arch::build_sequential_svm(q);
    auto wl = std::make_shared<core::CircuitWorkload>();
    for (std::int64_t a = 0; a <= 7; ++a) {
      for (std::int64_t b = 0; b <= 7; ++b) {
        wl->feature_codes.push_back({a, b});
        wl->expected_class.push_back(q.predict_codes({a, b}));
      }
    }
    return std::make_pair(
        std::make_shared<const netlist::Module>(std::move(circuit.module)),
        std::make_pair(circuit.cycles_per_inference,
                       std::shared_ptr<const core::CircuitWorkload>(wl)));
  }();
  svc::SweepRequest req;
  req.module = shared.first;
  req.cycles_per_inference = shared.second.first;
  req.workload = shared.second.second;
  req.options.power_samples = 16 + variant;
  return req;
}

/// Deterministic scheduling lever (same shape as the chaos suite's):
/// installed as the service test hook, it parks the evaluating thread at
/// held ordinals and lets the bench wait until an ordinal was entered.
class WorkerGate {
 public:
  std::function<void(std::uint64_t)> hook() {
    return [this](std::uint64_t ordinal) { enter(ordinal); };
  }
  void hold(std::uint64_t ordinal) {
    const std::lock_guard<std::mutex> lock(mu_);
    held_.insert(ordinal);
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

bool leg_deadline_exact() {
  const auto lib = cells::CellLibrary::egfet();
  util::ManualClock clock;
  svc::SweepService::Options opts;
  opts.clock = &clock;
  svc::SweepService service(lib, opts);
  WorkerGate gate;
  service.set_test_hook(gate.hook());

  // Advancing exactly to the deadline while the evaluation is parked at the
  // hook must abort the evaluation at its first checkpoint.
  gate.hold(0);
  svc::SweepRequest late = tiny_request(0);
  late.deadline_ns = 5 * kMs;
  const auto t0 = service.submit(late);
  gate.wait_entered(0);
  clock.advance(5 * kMs);
  gate.release_all();
  bool ok = service.wait_outcome(t0).status == svc::JobStatus::kTimeout;

  // One nanosecond short of the deadline must complete normally.
  gate.hold(1);
  svc::SweepRequest close_call = tiny_request(1);
  close_call.deadline_ns = 5 * kMs;
  const auto t1 = service.submit(close_call);
  gate.wait_entered(1);
  clock.advance(5 * kMs - 1);
  gate.release_all();
  ok = ok && service.wait_outcome(t1).status == svc::JobStatus::kOk;
  return ok;
}

bool leg_cache_bounded(std::uint64_t& evictions) {
  const auto lib = cells::CellLibrary::egfet();
  // Probe one entry's byte estimate on an unbounded service, then size
  // the real budget for ~2.5 entries.
  std::uint64_t entry_bytes = 0;
  {
    svc::SweepService probe(lib);
    (void)probe.evaluate(tiny_request(0));
    entry_bytes = probe.stats().cache_bytes;
  }
  if (entry_bytes == 0) return false;
  const std::uint64_t budget = entry_bytes * 2 + entry_bytes / 2;
  svc::SweepService::Options opts;
  opts.max_cache_bytes = budget;
  svc::SweepService service(lib, opts);
  bool ok = true;
  for (std::size_t variant = 0; variant < 4; ++variant) {
    (void)service.evaluate(tiny_request(variant));
    ok = ok && service.stats().cache_bytes <= budget;
  }
  const svc::SweepStats stats = service.stats();
  evictions = stats.cache_evictions;
  return ok && evictions >= 1 && stats.cache_entries <= 2;
}

bool leg_cancel(double& cancel_ms) {
  const auto lib = cells::CellLibrary::egfet();
  svc::SweepService service(lib);
  WorkerGate gate;
  gate.hold(0);
  service.set_test_hook(gate.hook());

  const auto ticket = service.submit(tiny_request());
  gate.wait_entered(0);
  // The worker is parked inside the evaluation; cancel, release, and time
  // how long the first cancellation checkpoint takes to resolve the job.
  const bool accepted = service.cancel(ticket);
  benchutil::Stopwatch watch;
  gate.release_all();
  const svc::SweepOutcome out = service.wait_outcome(ticket);
  cancel_ms = watch.seconds() * 1e3;
  return accepted && out.status == svc::JobStatus::kCancelled;
}

bool leg_straggler_isolated(std::size_t jobs, double& p99_wait_ms,
                            double& sweep_ms) {
  const auto lib = cells::CellLibrary::egfet();
  svc::SweepService::Options opts;
  opts.num_workers = 2;
  svc::SweepService service(lib, opts);
  WorkerGate gate;
  gate.hold(0);
  service.set_test_hook(gate.hook());

  // Park the straggler on one worker, then push `jobs` distinct points
  // through the surviving worker and require every one to finish while
  // the straggler is still held.
  const auto straggler = service.submit(tiny_request(100));
  gate.wait_entered(0);
  std::vector<svc::SweepTicket> tickets;
  for (std::size_t i = 0; i < jobs; ++i) {
    tickets.push_back(service.submit(tiny_request(200 + i)));
  }
  bool ok = true;
  std::vector<double> wait_ms;
  benchutil::Stopwatch sweep_watch;
  for (const auto& t : tickets) {
    benchutil::Stopwatch watch;
    ok = ok && service.wait_outcome(t).status == svc::JobStatus::kOk;
    wait_ms.push_back(watch.seconds() * 1e3);
  }
  sweep_ms = sweep_watch.seconds() * 1e3;
  gate.release_all();
  ok = ok && service.wait_outcome(straggler).status == svc::JobStatus::kOk;
  std::sort(wait_ms.begin(), wait_ms.end());
  p99_wait_ms =
      wait_ms.empty()
          ? 0.0
          : wait_ms[std::min(wait_ms.size() - 1,
                             static_cast<std::size_t>(
                                 static_cast<double>(wait_ms.size()) * 0.99))];
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::ObsArgs args = benchutil::parse_args(argc, argv);
  benchutil::ObsSession session("robustness", args, /*seed=*/0,
                                args.quick ? "quick" : "full");

  std::uint64_t evictions = 0;
  double cancel_ms = 0.0;
  double p99_wait_ms = 0.0;
  double sweep_ms = 0.0;
  const std::size_t straggler_jobs = args.quick ? 7 : 15;

  const bool deadline_ok = leg_deadline_exact();
  const bool cache_ok = leg_cache_bounded(evictions);
  const bool cancel_ok = leg_cancel(cancel_ms);
  const bool straggler_ok =
      leg_straggler_isolated(straggler_jobs, p99_wait_ms, sweep_ms);

  std::cerr << "bench_robustness: deadline=" << (deadline_ok ? "ok" : "FAIL")
            << " cache=" << (cache_ok ? "ok" : "FAIL")
            << " cancel=" << (cancel_ok ? "ok" : "FAIL") << " ("
            << cancel_ms << " ms)"
            << " straggler=" << (straggler_ok ? "ok" : "FAIL") << " (p99 "
            << p99_wait_ms << " ms over " << straggler_jobs << " jobs)\n";

  if (!(deadline_ok && cache_ok && cancel_ok && straggler_ok)) {
    std::cerr << "bench_robustness: acceptance bar failed — no JSON\n";
    return 1;
  }

  obs::Json rec = session.record();
  rec.set("robust",
          obs::Json::object()
              .set("deadline_exact_ok", deadline_ok ? 1.0 : 0.0)
              .set("cache_bounded_ok", cache_ok ? 1.0 : 0.0)
              .set("cancel_ok", cancel_ok ? 1.0 : 0.0)
              .set("straggler_isolated_ok", straggler_ok ? 1.0 : 0.0)
              .set("cache_evictions", evictions)
              .set("cancel_ms", cancel_ms)
              .set("p99_wait_ms", p99_wait_ms)
              .set("straggler_sweep_ms", sweep_ms)
              .set("straggler_jobs", straggler_jobs));
  rec.write(std::cout);
  std::cout << "\n";
  session.finish();
  return 0;
}
