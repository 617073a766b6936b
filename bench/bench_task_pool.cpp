// Fan-out overhead bench for util::TaskPool — the eighth gated baseline,
// and the tentpole's receipt: the pool must make small fan-outs at least
// 5x cheaper than the spawn/join-per-call scheme the batch drivers used
// before it, and a warm pool must serve the whole evaluation stack without ever
// creating another thread.
//
// Three legs:
//
//   1. *Fan-out overhead* — the claim-loop shape at its smallest useful
//      size (4 slots claiming a 64-item queue of trivial work, the shape
//      of a <= 4 lane-word batch driver) is timed two ways: through the
//      warm TaskPool, and through an in-bench reference that spawns and
//      joins fresh std::threads per call exactly like the pre-pool
//      fan-out.  Gated: pool.fanout_speedup_vs_spawn (the ratio;
//      the bench itself also enforces the >= 5x acceptance bar).  The
//      raw per-fan-out microseconds ride along as info.
//   2. *Nested sharing* — an outer group saturates the pool, one slot
//      fans out again (nested submission), and its siblings — already
//      done with their own slots — must take the nested tickets off the
//      shared queue: some inner slot must run on a thread other than the
//      one that submitted the inner group (pool.steal_ok).  The
//      pool.steals counter delta (every slot claimed through a queued
//      ticket, outer group included) rides along as info.
//   3. *Warm steady state* — a sweep of distinct jobs through a
//      2-worker svc::SweepService on the warm pool must complete with
//      TaskPool::threads_started() unmoved (pool.no_spawn_steady_ok);
//      throughput is info (pool.svc_jobs_per_sec).
//
// Gate: bench/baselines/task_pool_baseline.json (scripts/check_perf.py).
// Usage: bench_task_pool [--quick] [--trace out.json] [--metrics]

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "pml/arch/sequential_svm.hpp"
#include "pml/quant/svm_quant.hpp"
#include "pml/svc/sweep_service.hpp"
#include "pml/util/task_pool.hpp"

using namespace pml;

namespace {

// --- leg 1: fan-out overhead ------------------------------------------------

constexpr std::size_t kSlots = 4;    // a <= 4 lane-word batch's fan-out
constexpr std::size_t kItems = 64;   // claim queue per fan-out
constexpr int kWarmupIters = 50;

/// One fan-out's worth of work: the claim-loop shape of the batch
/// drivers, with per-item work cheap enough that scheduling overhead is
/// what gets measured.  Returns a checksum so nothing folds away.
std::uint64_t claim_work(std::atomic<std::size_t>& next) {
  std::uint64_t sum = 0;
  for (;;) {
    const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
    if (i >= kItems) return sum;
    sum += static_cast<std::uint64_t>(i) * 2654435761u + 17;
  }
}

/// The pre-pool fan-out, preserved as the comparison reference:
/// n-1 fresh std::threads per call, caller runs a slot, join all.
std::uint64_t spawn_fanout() {
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> sum{0};
  std::vector<std::thread> threads;
  threads.reserve(kSlots - 1);
  for (std::size_t t = 1; t < kSlots; ++t) {
    threads.emplace_back(
        [&] { sum.fetch_add(claim_work(next), std::memory_order_relaxed); });
  }
  sum.fetch_add(claim_work(next), std::memory_order_relaxed);
  for (std::thread& th : threads) th.join();
  return sum.load();
}

std::uint64_t pool_fanout() {
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> sum{0};
  util::TaskPool::instance().run_group(kSlots, "bench.fanout", [&](std::size_t) {
    sum.fetch_add(claim_work(next), std::memory_order_relaxed);
  });
  return sum.load();
}

/// Mean microseconds per fan-out over `iters` calls.
template <typename Fanout>
double time_fanouts(int iters, std::uint64_t& checksum, Fanout&& fanout) {
  for (int i = 0; i < kWarmupIters; ++i) checksum += fanout();
  benchutil::Stopwatch watch;
  for (int i = 0; i < iters; ++i) checksum += fanout();
  return watch.seconds() * 1e6 / iters;
}

// --- leg 2: nested sharing --------------------------------------------------

bool leg_steals(std::uint64_t& steals) {
  util::TaskPool& pool = util::TaskPool::instance();
  // Which thread claims which slot is scheduling-dependent, so the probe
  // retries: each round saturates the pool with an outer group whose
  // slot 0 fans out again with slow inner slots while its siblings finish
  // instantly — the siblings' only source of work is then the nested
  // tickets slot 0 queued.  Only inner slots run off slot 0's thread
  // count; the outer group's own tickets do not.
  for (int attempt = 0; attempt < 5; ++attempt) {
    const obs::MetricsSnapshot before = obs::snapshot_metrics();
    std::atomic<bool> shared{false};
    pool.run_group(pool.size(), "bench.outer", [&](std::size_t slot) {
      if (slot != 0) return;
      const std::thread::id submitter = std::this_thread::get_id();
      pool.run_group(4 * pool.size(), "bench.inner", [&](std::size_t) {
        if (std::this_thread::get_id() != submitter) {
          shared.store(true, std::memory_order_relaxed);
        }
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::microseconds(100);
        while (std::chrono::steady_clock::now() < until) {
        }
      });
    });
    const obs::MetricsSnapshot delta =
        obs::diff_metrics(before, obs::snapshot_metrics());
    steals = 0;
    for (const auto& [metric, value] : delta.counters) {
      if (metric == "pool.steals") steals = value;
    }
    if (shared.load(std::memory_order_relaxed)) return true;
  }
  return false;
}

// --- leg 3: warm steady state ----------------------------------------------

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

/// Distinct-by-variant request over one shared module + workload
/// (power_samples is in the cache digest, so each variant evaluates).
svc::SweepRequest tiny_request(std::size_t variant) {
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

bool leg_no_spawn_steady(std::size_t jobs, double& jobs_per_sec) {
  const auto lib = cells::CellLibrary::egfet();
  svc::SweepService::Options opts;
  opts.num_workers = 2;
  svc::SweepService service(lib, opts);
  // Warm up: the seats, the pooled contexts, and every evaluation
  // fan-out allocate on first use; steady state starts after these.
  (void)service.wait(service.submit(tiny_request(1000)));
  (void)service.wait(service.submit(tiny_request(1001)));

  util::TaskPool& pool = util::TaskPool::instance();
  const std::uint64_t started_before = pool.threads_started();
  std::vector<svc::SweepTicket> tickets;
  tickets.reserve(jobs);
  benchutil::Stopwatch watch;
  for (std::size_t i = 0; i < jobs; ++i) {
    tickets.push_back(service.submit(tiny_request(i)));
  }
  bool ok = true;
  for (const auto& t : tickets) {
    ok = ok && service.wait_outcome(t).status == svc::JobStatus::kOk;
  }
  jobs_per_sec = static_cast<double>(jobs) / watch.seconds();
  // The whole sweep — service seats, verification shards, power replay —
  // must have ridden the warm pool: zero threads created.
  ok = ok && pool.threads_started() == started_before;
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::ObsArgs args = benchutil::parse_args(argc, argv);
  benchutil::ObsSession session("task_pool", args, /*seed=*/0,
                                args.quick ? "quick" : "full");

  const int fanout_iters = args.quick ? 400 : 2000;
  const std::size_t steady_jobs = args.quick ? 16 : 48;

  // Leg 1.  Pool first (also warms it), then the spawn/join reference.
  std::uint64_t checksum = 0;
  const double pool_us = time_fanouts(fanout_iters, checksum, pool_fanout);
  const double spawn_us = time_fanouts(fanout_iters, checksum, spawn_fanout);
  const double speedup = spawn_us / pool_us;
  const bool fanout_ok = speedup >= 5.0;

  std::uint64_t steals = 0;
  const bool steal_ok = leg_steals(steals);

  double jobs_per_sec = 0.0;
  const bool steady_ok = leg_no_spawn_steady(steady_jobs, jobs_per_sec);

  std::cerr << "bench_task_pool: fanout=" << (fanout_ok ? "ok" : "FAIL")
            << " (pool " << pool_us << " us vs spawn " << spawn_us
            << " us per " << kSlots << "-slot fan-out, " << speedup
            << "x; checksum " << (checksum & 0xff) << ")"
            << " steal=" << (steal_ok ? "ok" : "FAIL") << " (" << steals
            << " steals)"
            << " steady=" << (steady_ok ? "ok" : "FAIL") << " ("
            << jobs_per_sec << " jobs/s over " << steady_jobs << " jobs)\n";

  if (!(fanout_ok && steal_ok && steady_ok)) {
    std::cerr << "bench_task_pool: acceptance bar failed — no JSON\n";
    return 1;
  }

  obs::Json rec = session.record();
  rec.set("pool", obs::Json::object()
                      .set("fanout_speedup_vs_spawn", speedup)
                      .set("steal_ok", steal_ok ? 1.0 : 0.0)
                      .set("no_spawn_steady_ok", steady_ok ? 1.0 : 0.0)
                      .set("fanout_pool_us", pool_us)
                      .set("fanout_spawn_us", spawn_us)
                      .set("steals", steals)
                      .set("svc_jobs_per_sec", jobs_per_sec)
                      .set("steady_jobs", steady_jobs));
  rec.write(std::cout);
  std::cout << "\n";
  session.finish();
  return 0;
}
