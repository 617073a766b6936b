// Printed-yield experiment (extension): stuck-at fault tolerance, batched.
//
// Printed processes have defect rates orders of magnitude above silicon.
// This bench injects stuck-at-0/1 faults on internal nets of the generated
// circuits and measures classification accuracy as faults accumulate —
// comparing our sequential SVM against the parallel OvR baseline at the
// same fault counts.  The folded design reuses one engine, so a single
// fault hits *every* classifier (systematic error), whereas a parallel
// fault usually corrupts one classifier (localized error): the experiment
// quantifies that robustness trade-off, which the paper does not evaluate.
//
// The campaign runs on core::run_fault_campaign — 63 fault variants plus
// the golden reference per pass of the 64-way sim::BatchFaultSimulator —
// which turns the old 5-point, few-trial sweep into a dense campaign
// (every single-fault site exhaustively, plus hundreds of multi-fault
// trials).  The scalar CycleSimulator::force_net replay is retained as the
// timed reference and correctness oracle.
//
// Emits a machine-readable JSON object on stdout (consumed by the CI perf
// gate via scripts/check_perf.py); the human-readable summary goes to
// stderr.
//
// A SIMD comparison section times every compiled+supported wide lane-word
// backend against u64 on a variant set sized to fill one AVX-512 pass
// (511 variants + golden) and emits simd.<name>_vs_u64 ratios — gated in
// CI as OPTIONAL-IF-UNSUPPORTED.
//
// Usage: bench_fault_injection [--quick] [--trace out.json] [--metrics]
//                              [--backend u64|avx2|avx512|auto]

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "pml/arch/parallel_svm.hpp"
#include "pml/sim/backend.hpp"
#include "pml/arch/sequential_svm.hpp"
#include "pml/core/fault_campaign.hpp"
#include "pml/ml/multiclass.hpp"
#include "pml/quant/svm_quant.hpp"
#include "pml/report/table.hpp"
#include "pml/sim/cycle_sim.hpp"

using namespace pml;

namespace {

/// Quantized test features against the TRUE labels (fault campaigns measure
/// end-to-end accuracy, not agreement with the software model).
core::CircuitWorkload labeled_workload(const quant::QuantizedSvm& q,
                                       const ml::Dataset& test) {
  core::CircuitWorkload wl;
  wl.feature_codes.reserve(test.size());
  wl.expected_class.assign(test.y.begin(), test.y.end());
  for (const auto& x : test.X) {
    wl.feature_codes.push_back(quant::quantize_features(x, q.input_format));
  }
  return wl;
}

/// Scalar oracle: exactly the campaign protocol, one variant at a time
/// through CycleSimulator::force_net (install faults, reset, free-running
/// replay).  Returns per-variant misclassification counts.
std::vector<std::size_t> run_scalar(const netlist::Module& module,
                                    bool sequential, int cycles,
                                    const core::CircuitWorkload& wl,
                                    std::size_t n,
                                    const std::vector<core::FaultSet>& sets) {
  const auto lv = sim::levelize_shared(module);
  sim::CycleSimulator sim(module, lv);
  std::vector<const netlist::Port*> ports;
  for (std::size_t j = 0; j < wl.feature_codes[0].size(); ++j) {
    ports.push_back(
        module.find_input(std::string("x").append(std::to_string(j))));
  }
  const netlist::Port* class_port = module.find_output("class");
  std::vector<std::size_t> miscounts;
  miscounts.reserve(sets.size());
  for (const core::FaultSet& set : sets) {
    sim.clear_forces();
    for (const core::StuckAtFault& f : set.faults) {
      sim.force_net(f.net, f.stuck_value);
    }
    sim.reset();
    std::size_t mis = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < ports.size(); ++j) {
        sim.set_port(*ports[j],
                     static_cast<std::uint64_t>(wl.feature_codes[i][j]));
      }
      if (sequential) {
        for (int c = 0; c < cycles; ++c) sim.step();
      } else {
        sim.propagate();
      }
      mis += static_cast<int>(sim.port_unsigned(*class_port)) !=
             wl.expected_class[i];
    }
    miscounts.push_back(mis);
  }
  return miscounts;
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::ObsArgs args = benchutil::parse_args(argc, argv);
  const bool quick = args.quick;
  benchutil::ObsSession session("fault_injection", args, /*seed=*/7,
                                quick ? "quick" : "full");
  const auto data = benchutil::prepare(ml::UciProfile::kCardio);
  const std::size_t eval_samples = quick ? 60 : 200;

  ml::MulticlassTrainOptions topts;
  topts.base.seed = 7;
  const auto q_ovr =
      quant::quantize_svm(ml::train_one_vs_rest(data.train, topts), 4, 5);
  auto seq = arch::build_sequential_svm(q_ovr);
  auto par = arch::build_parallel_svm(q_ovr);
  const auto seq_stats = seq.module.stats();
  const auto par_stats = par.module.stats();

  const core::CircuitWorkload wl = labeled_workload(q_ovr, data.test);
  const std::size_t n = std::min(eval_samples, wl.feature_codes.size());

  std::cerr << "bench_fault_injection: " << data.name << ", sequential "
            << seq_stats.num_cells << " cells ("
            << seq.cycles_per_inference << " cycles/inference), parallel "
            << par_stats.num_cells << " cells, " << n
            << " samples per variant\n";

  // --- timed scalar-vs-batch comparison (sequential SVM) --------------------
  // Multi-fault variants fill whole batches so the speedup reflects steady
  // state; identical sets go through both paths and must agree exactly.
  const std::size_t timed_sets_count = quick ? 63 : 189;
  const auto timed_sets =
      core::sample_fault_sets(seq.module, /*faults_per_set=*/2,
                              timed_sets_count, /*seed=*/0xFA017);
  const std::size_t timed_work = timed_sets.size() * n;

  benchutil::Stopwatch sw;
  const auto scalar_counts =
      run_scalar(seq.module, /*sequential=*/true, seq.cycles_per_inference,
                 wl, n, timed_sets);
  const double scalar_s = sw.seconds();
  const double scalar_vsps = static_cast<double>(timed_work) / scalar_s;
  std::cerr << "  scalar (force_net replay): " << static_cast<long>(scalar_vsps)
            << " variant-samples/s\n";

  core::FaultCampaignOptions copts;
  copts.num_threads = 1;
  copts.max_samples = n;
  copts.backend = sim::parse_backend(args.backend);
  copts.levelization = sim::levelize_shared(seq.module);
  // The batch path clears one quick-mode pass in a few ms — too short for
  // a stable CI gate — so repeat it until at least 0.25 s has elapsed and
  // report the aggregate throughput.
  const auto timed_batch = core::run_fault_campaign(
      seq.module, seq.cycles_per_inference, wl, timed_sets, copts);
  std::size_t reps = 1;
  sw.restart();
  double batch_s = 0.0;
  for (;; ++reps) {
    (void)core::run_fault_campaign(seq.module, seq.cycles_per_inference, wl,
                                   timed_sets, copts);
    batch_s = sw.seconds();
    if (batch_s >= 0.25) break;
  }
  const double batch_vsps =
      static_cast<double>(timed_work) * static_cast<double>(reps) / batch_s;
  const double speedup = batch_vsps / scalar_vsps;

  bool counts_match = true;
  for (std::size_t i = 0; i < timed_sets.size(); ++i) {
    counts_match &= scalar_counts[i] == timed_batch.variants[i].misclassified;
  }
  std::cerr << "  batch (1 thr):             " << static_cast<long>(batch_vsps)
            << " variant-samples/s  -> " << speedup << "x vs scalar"
            << (counts_match ? "" : "  [MISMATCHES!]") << "\n";

  // --- dense campaign (batch only) ------------------------------------------
  // Every single-fault site exhaustively on the sequential SVM; the much
  // larger parallel baseline is exhaustive in full mode and a 1024-site
  // deterministic sample in --quick.  Plus multi-fault trials per count.
  core::FaultCampaignOptions dense;
  dense.max_samples = n;

  const auto seq_singles = core::enumerate_single_faults(seq.module);
  const auto par_singles =
      quick ? core::sample_fault_sets(par.module, 1, 1024, /*seed=*/0x51E5)
            : core::enumerate_single_faults(par.module);

  const std::vector<std::size_t> fault_counts{1, 2, 4, 8, 16, 32};
  const std::size_t trials = quick ? 63 : 252;
  auto multi_sets = [&](const netlist::Module& m) {
    std::vector<core::FaultSet> sets;
    for (const std::size_t f : fault_counts) {
      const auto s = core::sample_fault_sets(
          m, f, trials, /*seed=*/0xC0FFEE ^ (f * 1000003));
      sets.insert(sets.end(), s.begin(), s.end());
    }
    return sets;
  };
  const auto seq_multi = multi_sets(seq.module);
  const auto par_multi = multi_sets(par.module);

  sw.restart();
  const auto seq_single_r = core::run_fault_campaign(
      seq.module, seq.cycles_per_inference, wl, seq_singles, dense);
  const auto par_single_r =
      core::run_fault_campaign(par.module, 1, wl, par_singles, dense);
  const auto seq_multi_r = core::run_fault_campaign(
      seq.module, seq.cycles_per_inference, wl, seq_multi, dense);
  const auto par_multi_r =
      core::run_fault_campaign(par.module, 1, wl, par_multi, dense);
  const double dense_s = sw.seconds();
  const std::size_t dense_variants = seq_singles.size() + par_singles.size() +
                                     seq_multi.size() + par_multi.size();

  const auto seq_curve = core::accuracy_vs_fault_count(seq_multi, seq_multi_r);
  const auto par_curve = core::accuracy_vs_fault_count(par_multi, par_multi_r);

  auto mean_acc = [](const core::FaultCampaignResult& r) {
    double sum = 0.0;
    for (const auto& v : r.variants) sum += v.accuracy();
    return r.variants.empty(
        ) ? 0.0 : sum / static_cast<double>(r.variants.size());
  };
  auto broken_count = [](const core::FaultCampaignResult& r) {
    std::size_t broken = 0;
    for (const auto& v : r.variants) broken += v.accuracy() <= 0.5;
    return broken;
  };

  std::cerr << "  dense campaign: " << dense_variants << " variants in "
            << dense_s << " s (threads: hw)\n\n";
  report::Table table({"Faults", "Sequential acc (%)", "Parallel acc (%)",
                       "Seq broken (<=50%)", "Par broken (<=50%)"});
  table.add_row({"0", report::fmt_pct(seq_multi_r.golden.accuracy()),
                 report::fmt_pct(par_multi_r.golden.accuracy()), "0", "0"});
  table.add_row({"1 (all sites)", report::fmt_pct(mean_acc(seq_single_r)),
                 report::fmt_pct(mean_acc(par_single_r)),
                 std::to_string(broken_count(seq_single_r)) + "/" +
                     std::to_string(seq_singles.size()),
                 std::to_string(broken_count(par_single_r)) + "/" +
                     std::to_string(par_singles.size())});
  for (std::size_t k = 1; k < seq_curve.size(); ++k) {
    table.add_row({std::to_string(seq_curve[k].num_faults),
                   report::fmt_pct(seq_curve[k].mean_accuracy),
                   report::fmt_pct(par_curve[k].mean_accuracy),
                   std::to_string(seq_curve[k].broken) + "/" +
                       std::to_string(seq_curve[k].variants),
                   std::to_string(par_curve[k].broken) + "/" +
                       std::to_string(par_curve[k].variants)});
  }
  table.print(std::cerr);
  std::cerr << "\nFolding concentrates risk: one defective engine corrupts "
               "all n classifiers, while a parallel\ndefect usually damages "
               "one — the area/energy win trades against per-die yield.\n";

  // --- thread scaling (sequential multi-fault campaign) ----------------------
  const std::vector<std::size_t> thread_counts =
      benchutil::thread_scaling_axis();
  struct ThreadPoint {
    std::size_t threads;
    double vsps;
  };
  std::vector<ThreadPoint> scaling;
  for (const std::size_t t : thread_counts) {
    core::FaultCampaignOptions sopts = dense;
    sopts.num_threads = t;
    sw.restart();
    (void)core::run_fault_campaign(seq.module, seq.cycles_per_inference, wl,
                                   seq_multi, sopts);
    const double vsps =
        static_cast<double>(seq_multi.size() * n) / sw.seconds();
    scaling.push_back({t, vsps});
    std::cerr << "  batch (" << t << " thr): " << static_cast<long>(vsps)
              << " variant-samples/s\n";
  }

  // --- SIMD backend comparison -----------------------------------------------
  // 511 two-fault variants fill one AVX-512 pass (kLanes - 1 variants +
  // the golden lane) and 2/8 passes of AVX2/u64, so the ratio reflects
  // steady-state packing, not underfilled wide words.  Every backend must
  // report identical per-variant counts.
  const auto simd_sets =
      core::sample_fault_sets(seq.module, /*faults_per_set=*/2, 511,
                              /*seed=*/0x51D0);
  const auto time_backend = [&](sim::Backend b) {
    core::FaultCampaignOptions sopts = copts;
    sopts.backend = b;
    core::FaultCampaignResult r;
    std::size_t reps = 0;
    benchutil::Stopwatch ssw;
    double secs = 0.0;
    for (;; ++reps) {
      r = core::run_fault_campaign(seq.module, seq.cycles_per_inference, wl,
                                   simd_sets, sopts);
      secs = ssw.seconds();
      if (secs >= 0.25) break;
    }
    const double vsps = static_cast<double>(simd_sets.size() * n) *
                        static_cast<double>(reps + 1) / secs;
    return std::pair<double, core::FaultCampaignResult>(vsps, std::move(r));
  };
  const auto [simd_u64_vsps, simd_u64_result] =
      time_backend(sim::Backend::kU64);
  obs::Json simd = obs::Json::object();
  bool simd_ok = true;
  for (const sim::Backend b : sim::available_backends()) {
    if (b == sim::Backend::kU64) continue;
    const auto [vsps, r] = time_backend(b);
    bool equal = r.golden.misclassified == simd_u64_result.golden.misclassified;
    for (std::size_t i = 0; i < r.variants.size(); ++i) {
      equal &= r.variants[i].misclassified ==
               simd_u64_result.variants[i].misclassified;
    }
    simd_ok &= equal;
    const std::string name = sim::backend_name(b);
    std::cerr << "  " << name << " (1 thr): " << static_cast<long>(vsps)
              << " variant-samples/s  -> " << vsps / simd_u64_vsps
              << "x vs u64 (" << sim::backend_lanes(b) << " lanes)"
              << (equal ? "" : "  [MISMATCHES!]") << "\n";
    simd.set(name + "_variant_samples_per_sec", vsps);
    simd.set(name + "_vs_u64", vsps / simd_u64_vsps);
  }

  // --- machine-readable record ----------------------------------------------
  obs::Json rec = session.record();
  rec.set("dataset", data.name);
  rec.set("circuit",
          obs::Json::object()
              .set("arch", "sequential_svm")
              .set("cells", seq_stats.num_cells)
              .set("dffs", seq_stats.num_dffs)
              .set("nets", seq_stats.num_nets)
              .set("classes", q_ovr.num_classes)
              .set("cycles_per_inference", seq.cycles_per_inference));
  rec.set("timed_variants", timed_sets.size());
  rec.set("samples_per_variant", n);
  rec.set("scalar", obs::Json::object()
                        .set("seconds", scalar_s)
                        .set("variant_samples_per_sec", scalar_vsps));
  rec.set("batch", obs::Json::object()
                       .set("seconds", batch_s)
                       .set("variant_samples_per_sec", batch_vsps)
                       .set("speedup_vs_scalar", speedup));
  obs::Json campaign =
      obs::Json::object()
          .set("variants", dense_variants)
          .set("seconds", dense_s)
          .set("single_fault",
               obs::Json::object()
                   .set("sequential",
                        obs::Json::object()
                            .set("sites", seq_singles.size())
                            .set("mean_accuracy", mean_acc(seq_single_r))
                            .set("broken", broken_count(seq_single_r)))
                   .set("parallel",
                        obs::Json::object()
                            .set("sites", par_singles.size())
                            .set("mean_accuracy", mean_acc(par_single_r))
                            .set("broken", broken_count(par_single_r))));
  obs::Json curve = obs::Json::array();
  for (std::size_t k = 0; k < seq_curve.size(); ++k) {
    curve.push(obs::Json::object()
                   .set("faults", seq_curve[k].num_faults)
                   .set("seq_accuracy", seq_curve[k].mean_accuracy)
                   .set("par_accuracy", par_curve[k].mean_accuracy)
                   .set("seq_broken", seq_curve[k].broken)
                   .set("par_broken", par_curve[k].broken));
  }
  campaign.set("curve", std::move(curve));
  rec.set("campaign", std::move(campaign));
  obs::Json points = obs::Json::array();
  for (const ThreadPoint& p : scaling) {
    points.push(obs::Json::object()
                    .set("threads", p.threads)
                    .set("variant_samples_per_sec", p.vsps)
                    .set("speedup_vs_scalar", p.vsps / scalar_vsps));
  }
  rec.set("thread_scaling", std::move(points));
  rec.set("simd", std::move(simd));
  rec.write(std::cout);
  std::cout << "\n";
  session.finish();

  if (!counts_match || !simd_ok) {
    std::cerr << "bench_fault_injection: scalar/batch mismatch — failing\n";
    return 1;
  }
  return speedup >= 30.0 ? 0 : 2;
}
