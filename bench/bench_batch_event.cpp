// Glitch-counting (power-replay) throughput benchmark: scalar
// delay-accurate EventSimulator vs the 64-way bit-parallel
// BatchEventSimulator (core::collect_activity, which runs on u64 lanes
// only) on a sequential-SVM workload, plus thread-scaling of the sharded
// driver.
//
// Emits a machine-readable JSON object on stdout (same shape as
// bench_batch_sim) so scripts/check_perf.py can gate CI on regressions;
// the human-readable summary goes to stderr.
//
// An info line (and the record's list_arena object, not gated) reports
// the waveform engine's transition-list arena high-water on one full u64
// batch of the workload.
//
// Usage: bench_batch_event [--quick] [--trace out.json] [--metrics]

#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "pml/arch/sequential_svm.hpp"
#include "pml/core/activity.hpp"
#include "pml/core/flow.hpp"
#include "pml/sim/batch_event_sim.hpp"
#include "pml/ml/multiclass.hpp"
#include "pml/quant/svm_quant.hpp"
#include "pml/sim/event_sim.hpp"
#include "pml/sim/levelize.hpp"

using namespace pml;

namespace {

constexpr double kQuantumMs = core::kTimeQuantumMs;

/// Scalar reference loop, the back-to-back protocol collect_activity
/// reproduces: reset, run sample n - 1 uncounted, then count samples
/// 0 .. n-1 one after another.
sim::ActivityStats run_scalar(const netlist::Module& module,
                              const cells::CellLibrary& lib, int cycles,
                              const core::CircuitWorkload& wl, std::size_t n,
                              const std::vector<const netlist::Port*>& ports) {
  sim::EventSimulator esim(module, lib, kQuantumMs);
  const auto apply = [&](std::size_t s) {
    for (std::size_t j = 0; j < ports.size(); ++j) {
      esim.set_port(*ports[j],
                    static_cast<std::uint64_t>(wl.feature_codes[s][j]));
    }
    for (int c = 0; c < cycles; ++c) esim.step();
  };
  esim.reset();
  apply(n - 1);
  esim.clear_activity();
  for (std::size_t s = 0; s < n; ++s) apply(s);
  return esim.activity();
}

std::uint64_t total_toggles(const sim::ActivityStats& a) {
  std::uint64_t t = 0;
  for (const auto v : a.net_toggles) t += v;
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::ObsArgs args = benchutil::parse_args(argc, argv);
  const bool quick = args.quick;
  benchutil::ObsSession session("batch_event", args, /*seed=*/7,
                                quick ? "quick" : "full");

  // Train/quantize one OvR model and build the paper's sequential circuit
  // (same setup as bench_batch_sim).
  const auto data = benchutil::prepare(ml::UciProfile::kCardio);
  ml::MulticlassTrainOptions topts;
  topts.base.seed = 7;
  const auto model = ml::train_one_vs_rest(data.train, topts);
  const auto q = quant::quantize_svm(model, /*input_bits=*/4,
                                     /*weight_bits=*/5);
  auto circuit = arch::build_sequential_svm(q);
  const auto stats = circuit.module.stats();
  const auto lib = cells::CellLibrary::egfet();

  // Tile the test set so every 64-lane batch is full and timings are
  // stable; the scalar oracle replays a subset to keep runtime sane.
  const core::CircuitWorkload base = core::make_svm_workload(q, data.test);
  core::CircuitWorkload wl;
  const std::size_t target = quick ? 2048 : 8192;
  while (wl.feature_codes.size() < target) {
    wl.feature_codes.insert(wl.feature_codes.end(), base.feature_codes.begin(),
                            base.feature_codes.end());
    wl.expected_class.insert(wl.expected_class.end(),
                             base.expected_class.begin(),
                             base.expected_class.end());
  }
  const std::size_t n = wl.feature_codes.size();
  const std::size_t n_scalar = std::min<std::size_t>(n, quick ? 256 : 1024);

  std::vector<const netlist::Port*> ports =
      core::feature_ports(circuit.module, wl.feature_codes[0].size());

  std::cerr << "bench_batch_event: " << data.name << ", " << stats.num_cells
            << " cells, " << q.num_classes << " classes ("
            << circuit.cycles_per_inference << " cycles/inference), " << n
            << " samples (" << n_scalar << " scalar)\n";

  // --- scalar reference ------------------------------------------------------
  benchutil::Stopwatch sw;
  const sim::ActivityStats scalar_stats =
      run_scalar(circuit.module, lib, circuit.cycles_per_inference, wl,
                 n_scalar, ports);
  const double scalar_s = sw.seconds();
  const double scalar_sps = static_cast<double>(n_scalar) / scalar_s;
  std::cerr << "  scalar:        " << static_cast<long>(scalar_sps)
            << " samples/s (" << total_toggles(scalar_stats)
            << " toggles on " << n_scalar << " samples)\n";

  // --- batch event, single thread --------------------------------------------
  core::ActivityOptions aopts;
  aopts.num_threads = 1;
  aopts.levelization = sim::levelize_shared(circuit.module);
  sw.restart();
  const sim::ActivityStats batch_stats = core::collect_activity(
      circuit.module, lib, circuit.cycles_per_inference, wl, n, aopts);
  const double batch_s = sw.seconds();
  const double batch_sps = static_cast<double>(n) / batch_s;
  const double speedup = batch_sps / scalar_sps;
  std::cerr << "  batch (1 thr): " << static_cast<long>(batch_sps)
            << " samples/s  -> " << speedup << "x vs scalar ("
            << total_toggles(batch_stats) << " toggles on " << n
            << " samples)\n";

  // --- thread scaling --------------------------------------------------------
  const std::vector<std::size_t> thread_counts =
      benchutil::thread_scaling_axis();
  struct ThreadPoint {
    std::size_t threads;
    double sps;
  };
  std::vector<ThreadPoint> scaling;
  for (const std::size_t t : thread_counts) {
    aopts.num_threads = t;
    sw.restart();
    const auto r = core::collect_activity(
        circuit.module, lib, circuit.cycles_per_inference, wl, n, aopts);
    const double sps = static_cast<double>(n) / sw.seconds();
    scaling.push_back({t, sps});
    std::cerr << "  batch (" << t << " thr): " << static_cast<long>(sps)
              << " samples/s"
              << (total_toggles(r) == total_toggles(batch_stats)
                      ? ""
                      : "  [COUNTS DIVERGED!]")
              << "\n";
  }

  // --- list memory ----------------------------------------------------------
  // The waveform engine's arena high-water on one full 64-lane batch of
  // the workload (informational, not gated).
  sim::BatchEventSimulator probe(circuit.module, lib, kQuantumMs,
                                 aopts.levelization);
  {
    std::uint64_t lane_values[sim::BatchEventSimulator::kLanes];
    for (std::size_t j = 0; j < ports.size(); ++j) {
      for (std::size_t l = 0; l < sim::BatchEventSimulator::kLanes; ++l) {
        lane_values[l] =
            static_cast<std::uint64_t>(wl.feature_codes[l % n][j]);
      }
      probe.set_port(*ports[j], lane_values, sim::BatchEventSimulator::kLanes);
    }
    for (int c = 0; c < circuit.cycles_per_inference; ++c) probe.step();
  }
  const std::size_t arena_bytes =
      probe.arena_high_water() * sim::BatchEventSimulator::kListEntryBytes;
  std::cerr << "  list arena (u64, one batch): " << probe.arena_high_water()
            << " entries (" << arena_bytes / 1024 << " KiB) high-water, "
            << probe.live_high_water() << " live\n";

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
                        .set("samples", n_scalar)
                        .set("samples_per_sec", scalar_sps));
  rec.set("batch", obs::Json::object()
                       .set("seconds", batch_s)
                       .set("samples_per_sec", batch_sps)
                       .set("speedup_vs_scalar", speedup));
  obs::Json points = obs::Json::array();
  for (const ThreadPoint& p : scaling) {
    points.push(obs::Json::object()
                    .set("threads", p.threads)
                    .set("samples_per_sec", p.sps)
                    .set("speedup_vs_scalar", p.sps / scalar_sps));
  }
  rec.set("thread_scaling", std::move(points));
  rec.set("list_arena", obs::Json::object()
                            .set("entries", probe.arena_high_water())
                            .set("live_entries", probe.live_high_water())
                            .set("bytes", arena_bytes));
  rec.write(std::cout);
  std::cout << "\n";
  session.finish();

  if (total_toggles(batch_stats) == 0) {
    std::cerr << "bench_batch_event: no activity counted — failing\n";
    return 1;
  }
  return speedup >= 10.0 ? 0 : 2;
}
