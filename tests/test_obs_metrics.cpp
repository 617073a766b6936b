// pml::obs metrics registry: exact counter arithmetic through the macro
// path, snapshot/diff semantics (clamping, after-only metrics), and the
// determinism contract — a fixed simulation workload produces the
// identical counter delta on every run, because counters count work
// items, never time (the pool's two scheduling counters excepted).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "pml/arch/sequential_svm.hpp"
#include "pml/cells/library.hpp"
#include "pml/core/flow.hpp"
#include "pml/ml/multiclass.hpp"
#include "pml/ml/scaler.hpp"
#include "pml/ml/synthetic_datasets.hpp"
#include "pml/obs/metrics.hpp"
#include "pml/quant/svm_quant.hpp"

namespace pml::obs {
namespace {

TEST(ObsMetrics, CounterMacroCountsExactly) {
  const MetricsSnapshot before = snapshot_metrics();
  for (int i = 0; i < 1000; ++i) PML_OBS_COUNT("test.metrics.unit", 1);
  PML_OBS_COUNT("test.metrics.unit", 42);
  const MetricsSnapshot delta = diff_metrics(before, snapshot_metrics());
  EXPECT_EQ(delta.counter_value("test.metrics.unit"), 1042u);
  EXPECT_EQ(delta.counter_value("test.metrics.never_touched"), 0u);
}

TEST(ObsMetrics, CountersAreSharedAcrossThreads) {
  const MetricsSnapshot before = snapshot_metrics();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        PML_OBS_COUNT("test.metrics.mt", 1);
      }
    });
  }
  for (auto& th : pool) th.join();
  const MetricsSnapshot delta = diff_metrics(before, snapshot_metrics());
  EXPECT_EQ(delta.counter_value("test.metrics.mt"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsMetrics, DiffClampsAndKeepsAfterOnlyMetrics) {
  PML_OBS_COUNT("test.metrics.preexisting", 5);
  MetricsSnapshot before = snapshot_metrics();
  // Manufacture before > after without resetting the real registry (other
  // tests in this binary rely on monotonicity): edit the copy.
  for (auto& [name, v] : before.counters) {
    if (name == "test.metrics.preexisting") v += 1000;
  }
  PML_OBS_COUNT("test.metrics.after_only_probe", 7);
  const MetricsSnapshot delta = diff_metrics(before, snapshot_metrics());
  EXPECT_EQ(delta.counter_value("test.metrics.preexisting"), 0u)
      << "negative deltas must clamp to zero";
  EXPECT_EQ(delta.counter_value("test.metrics.after_only_probe"), 7u)
      << "metrics first seen in `after` keep their absolute value";
}

TEST(ObsMetrics, SnapshotIsSortedByName) {
  PML_OBS_COUNT("test.metrics.zzz", 1);
  PML_OBS_COUNT("test.metrics.aaa", 1);
  const MetricsSnapshot snap = snapshot_metrics();
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].first, snap.counters[i].first);
  }
}

// --- determinism over a real workload ---------------------------------------

/// One full sequential-SVM design evaluation (Cardio, fixed seeds) and the
/// counter delta it produces.
MetricsSnapshot run_fixed_workload() {
  const ml::Dataset raw = ml::make_uci_like(ml::UciProfile::kCardio);
  ml::Split split = ml::stratified_split(raw, 0.8, 99);
  ml::MinMaxScaler scaler;
  scaler.fit(split.train);
  const ml::Dataset train = scaler.transform(split.train);
  const ml::Dataset test = scaler.transform(split.test);
  ml::MulticlassTrainOptions topts;
  topts.base.seed = 7;
  const auto model = ml::train_one_vs_rest(train, topts);
  const auto q =
      quant::quantize_svm(model, /*input_bits=*/4, /*weight_bits=*/5);
  const auto circuit = arch::build_sequential_svm(q);
  const core::CircuitWorkload wl = core::make_svm_workload(q, test);
  core::EvaluateOptions eopts;
  eopts.power_samples = 16;
  eopts.verify.num_threads = 2;
  eopts.power_threads = 2;

  const MetricsSnapshot before = snapshot_metrics();
  const auto rep =
      core::evaluate_circuit(circuit.module, circuit.cycles_per_inference,
                             cells::CellLibrary::egfet(), wl, eopts);
  EXPECT_TRUE(rep.verified);
  return diff_metrics(before, snapshot_metrics());
}

TEST(ObsMetrics, FixedWorkloadCounterDeltasAreDeterministic) {
  const MetricsSnapshot first = run_fixed_workload();
  const MetricsSnapshot second = run_fixed_workload();

  // The instrumented subsystems must have actually counted something.
  EXPECT_GT(first.counter_value("core.evaluations"), 0u);
  EXPECT_GT(first.counter_value("sim.batch.lane_words"), 0u);
  EXPECT_GT(first.counter_value("sim.batch.batches"), 0u);
  EXPECT_GT(first.counter_value("sim.batch_event.lane_words"), 0u);
  // (opt.cost_probes stays zero here: the default area flow never consults
  // the cost model — only the cost-driven recipes probe it.)
  EXPECT_GT(first.counter_value("opt.pass.applications"), 0u);

  // Work-item counters are independent of scheduling, thread interleaving
  // and wall time: identical workload, identical deltas.  The pool's
  // scheduling counters are not work items — an idle worker parks, or a
  // thief takes a ticket, on its own schedule (a worker that went idle
  // after the training fan-outs above may park inside the window) — so
  // they are left out of the comparison (docs/observability.md).
  const auto work_items = [](const MetricsSnapshot& snap) {
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (const auto& c : snap.counters) {
      if (c.first != "pool.parked" && c.first != "pool.steals") {
        out.push_back(c);
      }
    }
    return out;
  };
  const auto a = work_items(first);
  const auto b = work_items(second);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first);
    EXPECT_EQ(a[i].second, b[i].second)
        << "counter " << a[i].first
        << " is not deterministic for a fixed workload";
  }
}

}  // namespace
}  // namespace pml::obs
