// Sweep-service throughput and cache effectiveness on the Table I Cardio
// sequential SVM, plus the zero-allocation steady-state proof for the
// pooled evaluation core.
//
// Three phases, one svc::SweepService:
//
//   1. *Cold sweep with duplicates*: every flow recipe is submitted twice
//      before any wait, so exactly half the submissions must be absorbed
//      by in-flight dedup / the result cache (sweep.dedup_saved_fraction,
//      deterministic, gated).  The four real evaluations time the cold
//      path (info.evals_per_sec_cold — machine-dependent, not gated).
//   2. *Warm re-sweep*: the identical sweep again; every submission must
//      be a cache hit (sweep.resweep_hit_rate, gated) and the whole sweep
//      collapses to map lookups (sweep.warm_speedup, gated conservatively
//      — the real ratio is orders of magnitude larger).
//   3. *Zero-alloc steady state*: this binary installs the counting
//      operator-new hook; after two warm-up calls, a pooled
//      evaluate_circuit_into must perform zero heap allocations on the
//      calling thread (eval.zero_alloc_ok, gated — it is 1.0 or 0.0).
//
// Gate: bench/baselines/sweep_service_baseline.json (scripts/check_perf.py).
// Usage: bench_sweep_service [--quick] [--trace out.json] [--metrics]

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "pml/util/alloc_hook.hpp"

PML_INSTALL_COUNTING_ALLOC_HOOK;

#include "bench_util.hpp"
#include "pml/arch/sequential_svm.hpp"
#include "pml/core/evaluate.hpp"
#include "pml/core/flow.hpp"
#include "pml/ml/multiclass.hpp"
#include "pml/opt/optimizer.hpp"
#include "pml/quant/svm_quant.hpp"
#include "pml/report/table.hpp"
#include "pml/svc/sweep_service.hpp"

using namespace pml;

int main(int argc, char** argv) {
  const benchutil::ObsArgs args = benchutil::parse_args(argc, argv);
  const bool quick = args.quick;
  benchutil::ObsSession session("sweep_service", args, /*seed=*/7,
                                quick ? "quick" : "full");

  // The Table I circuit of bench_opt_flows: Cardio OvR sequential SVM.
  const auto data = benchutil::prepare(ml::UciProfile::kCardio);
  ml::MulticlassTrainOptions topts;
  topts.base.seed = 7;
  const auto model = ml::train_one_vs_rest(data.train, topts);
  const auto q = quant::quantize_svm(model, /*input_bits=*/4,
                                     /*weight_bits=*/5);
  auto circuit =
      arch::build_sequential_svm(q, opt::OptOptions{.enabled = false});
  const int cycles = circuit.cycles_per_inference;
  const auto module =
      std::make_shared<const netlist::Module>(std::move(circuit.module));
  const auto workload = std::make_shared<const core::CircuitWorkload>(
      core::make_svm_workload(q, data.test));

  core::EvaluateOptions eopts;
  eopts.power_samples = quick ? 48 : 96;

  const cells::CellLibrary lib = cells::CellLibrary::egfet();
  const std::vector<std::string> flows = {"none", "area", "energy",
                                          "balanced"};
  svc::SweepService service(lib);

  // --- phase 1: cold sweep, every request submitted twice -------------------
  benchutil::Stopwatch cold_watch;
  std::vector<svc::SweepTicket> tickets;
  for (int dup = 0; dup < 2; ++dup) {
    for (const std::string& flow : flows) {
      svc::SweepRequest req;
      req.module = module;
      req.cycles_per_inference = cycles;
      req.workload = workload;
      req.flow = flow;
      req.options = eopts;
      tickets.push_back(service.submit(req));
    }
  }
  std::vector<core::HardwareReport> cold_reports;
  for (const auto& t : tickets) cold_reports.push_back(service.wait(t));
  const double cold_seconds = cold_watch.seconds();
  const svc::SweepStats cold = service.stats();
  const double dedup_saved =
      cold.submitted != 0
          ? 1.0 - static_cast<double>(cold.evaluated) /
                      static_cast<double>(cold.submitted)
          : 0.0;

  // --- phase 2: warm re-sweep ------------------------------------------------
  benchutil::Stopwatch warm_watch;
  const auto warm_rows =
      service.sweep_flows(module, cycles, workload, eopts, flows);
  const double warm_seconds = warm_watch.seconds();
  const svc::SweepStats warm = service.stats();
  const double resweep_hit_rate =
      static_cast<double>(warm.cache_hits - cold.cache_hits) /
      static_cast<double>(warm.submitted - cold.submitted);
  const double warm_speedup =
      warm_seconds > 0.0 ? cold_seconds / warm_seconds : 0.0;

  // --- phase 3: zero-allocation steady state ---------------------------------
  core::EvaluateOptions zopts = eopts;
  zopts.verify.num_threads = 1;
  zopts.power_threads = 1;
  zopts.optimize.enabled = false;
  zopts.validate_module = false;
  core::EvalContext ctx;
  core::HardwareReport pooled;
  for (int i = 0; i < 2; ++i) {
    core::evaluate_circuit_into(ctx, pooled, *module, cycles, lib, *workload,
                                zopts);
  }
  const std::uint64_t allocs_before = util::thread_alloc_count();
  core::evaluate_circuit_into(ctx, pooled, *module, cycles, lib, *workload,
                              zopts);
  const std::uint64_t steady_allocs =
      util::thread_alloc_count() - allocs_before;

  // --- report ----------------------------------------------------------------
  report::Table table({"Phase", "Submits", "Evals", "Hits+Dedup", "Seconds"});
  table.add_row({"cold (2x duplicates)", std::to_string(cold.submitted),
                 std::to_string(cold.evaluated),
                 std::to_string(cold.cache_hits + cold.inflight_deduped),
                 report::fmt(cold_seconds, 3)});
  table.add_row(
      {"warm re-sweep", std::to_string(warm.submitted - cold.submitted),
       std::to_string(warm.evaluated - cold.evaluated),
       std::to_string(warm.cache_hits - cold.cache_hits),
       report::fmt(warm_seconds, 6)});
  std::cerr << "bench_sweep_service: " << data.name << " sequential SVM, "
            << module->cells().size() << " raw cells, "
            << workload->feature_codes.size() << " verification samples, "
            << eopts.power_samples << " power samples\n";
  table.print(std::cerr);
  std::cerr << "  dedup saved " << report::fmt_pct(dedup_saved)
            << "% of submissions; warm hit rate "
            << report::fmt_pct(resweep_hit_rate) << "%; warm speedup "
            << report::fmt(warm_speedup, 1)
            << "x; steady-state allocs/eval: " << steady_allocs << "\n";

  bool ok = true;
  for (const auto& rep : cold_reports) ok = ok && rep.verified;
  for (const auto& row : warm_rows) ok = ok && row.hw.verified;
  ok = ok && cold.evaluated == flows.size();  // dedup absorbed the copies
  ok = ok && resweep_hit_rate == 1.0;         // warm sweep = pure lookup
  ok = ok && steady_allocs == 0;              // zero-alloc contract holds
  if (!ok) {
    std::cerr << "bench_sweep_service: acceptance bar failed — no JSON\n";
    return 1;
  }

  // --- machine-readable record ----------------------------------------------
  obs::Json rec = session.record();
  rec.set("dataset", data.name);
  rec.set("circuit", obs::Json::object()
                         .set("arch", "sequential_svm")
                         .set("classes", q.num_classes)
                         .set("cycles_per_inference", cycles)
                         .set("raw_cells", module->cells().size()));
  rec.set("sweep",
          obs::Json::object()
              .set("dedup_saved_fraction", dedup_saved)
              .set("resweep_hit_rate", resweep_hit_rate)
              .set("warm_speedup", warm_speedup)
              .set("submitted", warm.submitted)
              .set("evaluated", warm.evaluated)
              .set("cache_entries", warm.cache_entries)
              .set("cold_seconds", cold_seconds)
              .set("warm_seconds", warm_seconds)
              .set("evals_per_sec_cold",
                   cold_seconds > 0.0
                       ? static_cast<double>(cold.evaluated) / cold_seconds
                       : 0.0));
  rec.set("eval", obs::Json::object()
                      .set("zero_alloc_ok", steady_allocs == 0 ? 1.0 : 0.0)
                      .set("steady_allocs", steady_allocs));
  rec.write(std::cout);
  std::cout << "\n";
  session.finish();
  return 0;
}
