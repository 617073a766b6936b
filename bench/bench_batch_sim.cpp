// Verification-throughput benchmark: scalar CycleSimulator vs the 64-way
// bit-parallel BatchSimulator (core::verify_workload) on a sequential SVM
// workload, plus thread-scaling of the sharded driver and the measured
// overhead of the (uninstalled) observability hooks on the hot path.
//
// Emits a machine-readable JSON object on stdout so future PRs can track
// the perf trajectory; the human-readable summary goes to stderr.
//
// A SIMD comparison section times every compiled+supported wide lane-word
// backend (AVX2, AVX-512) against the u64 reference on the same workload
// and emits simd.<name>_vs_u64 ratios — gated in CI as
// OPTIONAL-IF-UNSUPPORTED (absent on hardware without the extension,
// regression-checked where present).
//
// Usage: bench_batch_sim [--quick] [--trace out.json] [--metrics]
//                        [--backend u64|avx2|avx512|auto]

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "pml/arch/sequential_svm.hpp"
#include "pml/sim/backend.hpp"
#include "pml/core/flow.hpp"
#include "pml/core/verify.hpp"
#include "pml/ml/multiclass.hpp"
#include "pml/quant/svm_quant.hpp"
#include "pml/sim/batch_sim.hpp"
#include "pml/sim/cycle_sim.hpp"

using namespace pml;

namespace {

/// Scalar reference loop: exactly what evaluate_circuit's verification gate
/// did before the batch subsystem (one sample at a time, free-running).
std::size_t run_scalar(const netlist::Module& module, int cycles,
                       const core::CircuitWorkload& wl,
                       const std::vector<const netlist::Port*>& ports,
                       const netlist::Port& class_port) {
  sim::CycleSimulator sim(module);
  std::size_t matches = 0;
  for (std::size_t s = 0; s < wl.feature_codes.size(); ++s) {
    for (std::size_t j = 0; j < ports.size(); ++j) {
      sim.set_port(*ports[j],
                   static_cast<std::uint64_t>(wl.feature_codes[s][j]));
    }
    for (int c = 0; c < cycles; ++c) sim.step();
    matches += static_cast<int>(sim.port_unsigned(class_port)) ==
               wl.expected_class[s];
  }
  return matches;
}

/// Measured cost of one PML_OBS_COUNT with no trace sink installed — the
/// per-invocation price every instrumented hot path pays by default.
double calibrate_count_ns(std::uint64_t iterations) {
  benchutil::Stopwatch sw;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    PML_OBS_COUNT("obs.calibration", 1);
  }
  return sw.seconds() * 1e9 / static_cast<double>(iterations);
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::ObsArgs args = benchutil::parse_args(argc, argv);
  benchutil::ObsSession session("batch_sim", args, /*seed=*/7,
                                args.quick ? "quick" : "full");

  // Train/quantize one OvR model and build the paper's sequential circuit.
  const auto data = benchutil::prepare(ml::UciProfile::kCardio);
  ml::MulticlassTrainOptions topts;
  topts.base.seed = 7;
  const auto model = ml::train_one_vs_rest(data.train, topts);
  const auto q = quant::quantize_svm(model, /*input_bits=*/4,
                                     /*weight_bits=*/5);
  auto circuit = arch::build_sequential_svm(q);
  const auto stats = circuit.module.stats();

  // Tile the test set into a large verification workload so the timings
  // are stable and the ragged-final-batch path is exercised.
  const core::CircuitWorkload base = core::make_svm_workload(q, data.test);
  core::CircuitWorkload wl;
  const std::size_t target = args.quick ? 2000 : 20000;
  while (wl.feature_codes.size() < target) {
    wl.feature_codes.insert(wl.feature_codes.end(), base.feature_codes.begin(),
                            base.feature_codes.end());
    wl.expected_class.insert(wl.expected_class.end(),
                             base.expected_class.begin(),
                             base.expected_class.end());
  }
  const std::size_t n = wl.feature_codes.size();

  std::vector<const netlist::Port*> ports;
  for (std::size_t j = 0; j < wl.feature_codes[0].size(); ++j) {
    ports.push_back(
        circuit.module.find_input(std::string("x").append(std::to_string(j))));
  }
  const netlist::Port* class_port = circuit.module.find_output("class");

  std::cerr << "bench_batch_sim: " << data.name << ", "
            << circuit.module.stats().num_cells << " cells, "
            << q.num_classes << " classes ("
            << circuit.cycles_per_inference << " cycles/inference), "
            << n << " samples\n";

  // --- scalar reference ------------------------------------------------------
  benchutil::Stopwatch sw;
  const std::size_t scalar_matches =
      run_scalar(circuit.module, circuit.cycles_per_inference, wl, ports,
                 *class_port);
  const double scalar_s = sw.seconds();
  const double scalar_sps = static_cast<double>(n) / scalar_s;
  std::cerr << "  scalar:        " << static_cast<long>(scalar_sps)
            << " samples/s (" << scalar_matches << "/" << n << " match)\n";

  // --- batch, single thread --------------------------------------------------
  core::VerifyOptions vopts;
  vopts.num_threads = 1;
  vopts.backend = sim::parse_backend(args.backend);
  vopts.levelization = sim::levelize_shared(circuit.module);
  const auto obs_before = obs::snapshot_metrics();
  sw.restart();
  const core::VerifyResult single = core::verify_workload(
      circuit.module, circuit.cycles_per_inference, wl, vopts);
  const double batch_s = sw.seconds();
  const auto obs_delta =
      obs::diff_metrics(obs_before, obs::snapshot_metrics());
  const double batch_sps = static_cast<double>(n) / batch_s;
  const double speedup = batch_sps / scalar_sps;
  std::cerr << "  batch (1 thr): " << static_cast<long>(batch_sps)
            << " samples/s  -> " << speedup << "x vs scalar"
            << (single.ok() ? "" : "  [MISMATCHES!]") << "\n";

  // --- observability overhead ------------------------------------------------
  // No tracer is installed during the legs above, so every PML_OBS_COUNT
  // cost one relaxed fetch_add and every PML_OBS_SPAN one relaxed load.
  // Reconstruct the exact number of macro invocations the batch leg made
  // from the counter deltas (lane_words adds once per propagate sweep,
  // batches once per claimed batch), price them at the measured
  // per-invocation cost, and compare against the leg's wall time.  The
  // budget is <= 1% — enforced here (exit 3) and gated in CI via the
  // obs.overhead_ok metric.
  const double count_ns =
      calibrate_count_ns(args.quick ? 10'000'000 : 50'000'000);
  const std::uint64_t comb_ops =
      static_cast<std::uint64_t>(stats.num_cells - stats.num_dffs);
  const std::uint64_t propagates =
      comb_ops > 0 ? obs_delta.counter_value("sim.batch.lane_words") / comb_ops
                   : 0;
  const std::uint64_t batches = obs_delta.counter_value("sim.batch.batches");
  const std::uint64_t obs_calls = propagates + batches + /*worker span*/ 1;
  const double overhead_frac =
      static_cast<double>(obs_calls) * count_ns / (batch_s * 1e9);
  const bool overhead_ok = overhead_frac <= 0.01;
  std::cerr << "  obs overhead:  " << count_ns << " ns/count x " << obs_calls
            << " calls = " << overhead_frac * 100.0
            << "% of the batch leg (budget 1%)"
            << (overhead_ok ? "" : "  [OVER BUDGET!]") << "\n";

  // --- thread scaling --------------------------------------------------------
  const std::vector<std::size_t> thread_counts =
      benchutil::thread_scaling_axis();
  struct ThreadPoint {
    std::size_t threads;
    double sps;
  };
  std::vector<ThreadPoint> scaling;
  for (const std::size_t t : thread_counts) {
    vopts.num_threads = t;
    sw.restart();
    const auto r = core::verify_workload(
        circuit.module, circuit.cycles_per_inference, wl, vopts);
    const double sps = static_cast<double>(n) / sw.seconds();
    scaling.push_back({t, sps});
    std::cerr << "  batch (" << t << " thr): " << static_cast<long>(sps)
              << " samples/s" << (r.ok() ? "" : "  [MISMATCHES!]") << "\n";
  }

  // --- SIMD backend comparison -----------------------------------------------
  // Single-thread lane-throughput of every available wide backend vs the
  // u64 reference on the identical workload.  Each wide leg must also
  // verify cleanly — the equivalence suite proves bit-exactness, this is
  // the belt-and-braces check on the real workload.
  const auto time_backend = [&](sim::Backend b) {
    core::VerifyOptions sopts = vopts;
    sopts.num_threads = 1;
    sopts.backend = b;
    benchutil::Stopwatch ssw;
    const core::VerifyResult r = core::verify_workload(
        circuit.module, circuit.cycles_per_inference, wl, sopts);
    return std::pair<double, bool>(static_cast<double>(n) / ssw.seconds(),
                                   r.ok());
  };
  const double u64_sps = vopts.backend == sim::Backend::kU64
                             ? batch_sps
                             : time_backend(sim::Backend::kU64).first;
  obs::Json simd = obs::Json::object();
  bool simd_ok = true;
  for (const sim::Backend b : sim::available_backends()) {
    if (b == sim::Backend::kU64) continue;
    const auto [sps, ok] = time_backend(b);
    simd_ok &= ok;
    const std::string name = sim::backend_name(b);
    std::cerr << "  " << name << " (1 thr): " << static_cast<long>(sps)
              << " samples/s  -> " << sps / u64_sps << "x vs u64 ("
              << sim::backend_lanes(b) << " lanes)"
              << (ok ? "" : "  [MISMATCHES!]") << "\n";
    simd.set(name + "_samples_per_sec", sps);
    simd.set(name + "_vs_u64", sps / u64_sps);
  }

  // --- machine-readable record ----------------------------------------------
  obs::Json rec = session.record();
  rec.set("dataset", data.name);
  rec.set("circuit",
          obs::Json::object()
              .set("arch", "sequential_svm")
              .set("cells", stats.num_cells)
              .set("dffs", stats.num_dffs)
              .set("nets", stats.num_nets)
              .set("classes", q.num_classes)
              .set("cycles_per_inference", circuit.cycles_per_inference));
  rec.set("samples", n);
  rec.set("scalar", obs::Json::object()
                        .set("seconds", scalar_s)
                        .set("samples_per_sec", scalar_sps));
  rec.set("batch", obs::Json::object()
                       .set("seconds", batch_s)
                       .set("samples_per_sec", batch_sps)
                       .set("speedup_vs_scalar", speedup));
  rec.set("obs", obs::Json::object()
                     .set("count_ns", count_ns)
                     .set("calls", obs_calls)
                     .set("overhead_fraction", overhead_frac)
                     .set("overhead_ok", overhead_ok ? 1.0 : 0.0));
  obs::Json points = obs::Json::array();
  for (const ThreadPoint& p : scaling) {
    points.push(obs::Json::object()
                    .set("threads", p.threads)
                    .set("samples_per_sec", p.sps)
                    .set("speedup_vs_scalar", p.sps / scalar_sps));
  }
  rec.set("thread_scaling", std::move(points));
  rec.set("simd", std::move(simd));
  rec.write(std::cout);
  std::cout << "\n";
  session.finish();

  if (!single.ok() || scalar_matches != n || !simd_ok) {
    std::cerr << "bench_batch_sim: verification mismatches — failing\n";
    return 1;
  }
  if (!overhead_ok) return 3;
  if (!session.ok()) return 4;
  return speedup >= 10.0 ? 0 : 2;
}
