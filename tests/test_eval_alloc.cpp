// Steady-state zero-allocation proof for the evaluation core.
//
// This binary installs the counting operator-new hook, warms an
// EvalContext with two evaluations (the first binds the pools, the
// second settles string/vector high-water marks), then asserts the
// third evaluation performs literally zero heap allocations on the
// calling thread under the documented contract: single-threaded
// verify + power, optimizer off, validation skipped, no tracer.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "pml/util/alloc_hook.hpp"

PML_INSTALL_COUNTING_ALLOC_HOOK;

#include "pml/arch/sequential_svm.hpp"
#include "pml/core/activity.hpp"
#include "pml/core/evaluate.hpp"
#include "pml/core/verify.hpp"
#include "pml/quant/svm_quant.hpp"
#include "pml/sim/backend.hpp"
#include "pml/sim/levelize.hpp"
#include "pml/util/arena.hpp"

namespace pml::core {
namespace {

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

CircuitWorkload tiny_workload(const quant::QuantizedSvm& q) {
  CircuitWorkload wl;
  for (std::int64_t a = 0; a <= 7; ++a) {
    for (std::int64_t b = 0; b <= 7; ++b) {
      wl.feature_codes.push_back({a, b});
      wl.expected_class.push_back(q.predict_codes({a, b}));
    }
  }
  return wl;
}

EvaluateOptions zero_alloc_options() {
  EvaluateOptions opts;
  opts.verify.num_threads = 1;
  opts.power_threads = 1;
  opts.optimize.enabled = false;
  opts.validate_module = false;
  return opts;
}

TEST(EvalAlloc, HookIsLive) {
  const std::uint64_t before = util::thread_alloc_count();
  auto v = std::make_unique<std::vector<int>>(256);
  v->push_back(1);
  EXPECT_GT(util::thread_alloc_count(), before);
}

/// Heap allocations of the third pooled evaluation of `wl` (the first
/// binds the pools, the second settles every capacity high-water mark).
std::uint64_t steady_state_allocs(const CircuitWorkload& wl,
                                  const EvaluateOptions& opts) {
  const auto q = tiny_model();
  auto circuit = arch::build_sequential_svm(q);
  const auto lib = cells::CellLibrary::egfet();

  EvalContext ctx;
  HardwareReport rep;
  evaluate_circuit_into(ctx, rep, circuit.module, circuit.cycles_per_inference,
                        lib, wl, opts);
  evaluate_circuit_into(ctx, rep, circuit.module, circuit.cycles_per_inference,
                        lib, wl, opts);

  const std::uint64_t before = util::thread_alloc_count();
  evaluate_circuit_into(ctx, rep, circuit.module, circuit.cycles_per_inference,
                        lib, wl, opts);
  const std::uint64_t steady_allocs = util::thread_alloc_count() - before;

  // The pooled evaluation still produced a full, correct report.
  EXPECT_TRUE(rep.verified);
  EXPECT_EQ(rep.verified_samples, wl.feature_codes.size());
  EXPECT_GT(rep.energy_mj, 0.0);
  return steady_allocs;
}

// The levelization's fanout is one CSR (offsets + cell ids): refilling a
// warm one for the same module allocates nothing, and it lists every
// net's readers exactly as a scan of the cells does.
TEST(EvalAlloc, WarmLevelizeIntoIsAllocationFree) {
  const auto circuit = arch::build_sequential_svm(tiny_model());
  const netlist::Module& m = circuit.module;
  sim::Levelization lv;
  util::Arena arena;
  sim::levelize_into(m, lv, arena);
  arena.reset();
  sim::levelize_into(m, lv, arena);

  arena.reset();
  const std::uint64_t before = util::thread_alloc_count();
  sim::levelize_into(m, lv, arena);
  EXPECT_EQ(util::thread_alloc_count() - before, 0u);

  std::vector<std::vector<std::uint32_t>> readers(m.num_nets());
  for (std::size_t i = 0; i < m.cells().size(); ++i) {
    const netlist::Cell& c = m.cells()[i];
    for (int k = 0; k < netlist::cell_num_inputs(c.type); ++k) {
      readers[c.in[k]].push_back(static_cast<std::uint32_t>(i));
    }
  }
  ASSERT_EQ(lv.fanout_offsets.size(), m.num_nets() + 1);
  for (netlist::NetId n = 0; n < m.num_nets(); ++n) {
    const auto f = lv.fanout(n);
    EXPECT_EQ(std::vector<std::uint32_t>(f.begin(), f.end()), readers[n]);
  }
}

TEST(EvalAlloc, SteadyStateEvaluationIsAllocationFree) {
  const auto q = tiny_model();
  EXPECT_EQ(steady_state_allocs(tiny_workload(q), zero_alloc_options()), 0u);
}

// 512 power samples replay one per lane in eight u64 batches, beside a
// verify engine of the widest backend (where the CPU has one).  The
// replay's u64 warm-up engine and the verify engine keep separate pooled
// slots in the same worker scratch, so neither evicts the other.
TEST(EvalAlloc, SteadyStateMultiBatchReplayIsAllocationFree) {
  const auto q = tiny_model();
  const CircuitWorkload grid = tiny_workload(q);
  CircuitWorkload wl;
  for (int rep = 0; rep < 8; ++rep) {
    wl.feature_codes.insert(wl.feature_codes.end(), grid.feature_codes.begin(),
                            grid.feature_codes.end());
    wl.expected_class.insert(wl.expected_class.end(),
                             grid.expected_class.begin(),
                             grid.expected_class.end());
  }
  EvaluateOptions opts = zero_alloc_options();
  opts.power_samples = wl.feature_codes.size();
  EXPECT_EQ(steady_state_allocs(wl, opts), 0u);
}

// Verify on every wide backend in turn and replay activity on u64 through
// one context, round after round.  Each backend has its own pooled
// zero-delay slot, so switching the verify backend never evicts the
// replay's warm engines.
TEST(EvalAlloc, WideVerifyAndU64ReplayStayPooled) {
  std::vector<sim::Backend> wide = sim::available_backends();
  wide.erase(wide.begin());  // u64
  if (wide.empty()) GTEST_SKIP() << "needs a wide SIMD backend";
  const auto q = tiny_model();
  auto circuit = arch::build_sequential_svm(q);
  const auto lib = cells::CellLibrary::egfet();
  const CircuitWorkload wl = tiny_workload(q);

  EvalContext ctx;
  const auto lv = ctx.levelize(circuit.module);
  VerifyOptions verify;
  verify.num_threads = 1;
  verify.levelization = lv;
  verify.context = &ctx;
  ActivityOptions activity;
  activity.num_threads = 1;
  activity.levelization = lv;
  activity.context = &ctx;
  sim::ActivityStats stats;

  // Rounds 1 and 2 warm the pools; round 3 is measured.
  std::uint64_t allocs = 0;
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t before = util::thread_alloc_count();
    for (const sim::Backend b : wide) {
      verify.backend = b;
      EXPECT_TRUE(verify_workload(circuit.module,
                                  circuit.cycles_per_inference, wl, verify)
                      .ok());
      collect_activity_into(stats, circuit.module, lib,
                            circuit.cycles_per_inference, wl,
                            wl.feature_codes.size(), activity);
    }
    allocs = util::thread_alloc_count() - before;
  }
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(stats.cycles, 0u);
}

TEST(EvalAlloc, PooledAndFreshReportsAgree) {
  const auto q = tiny_model();
  auto circuit = arch::build_sequential_svm(q);
  const auto lib = cells::CellLibrary::egfet();
  const auto wl = tiny_workload(q);
  const auto opts = zero_alloc_options();

  const HardwareReport fresh = evaluate_circuit(
      circuit.module, circuit.cycles_per_inference, lib, wl, opts);

  EvalContext ctx;
  HardwareReport pooled;
  for (int i = 0; i < 3; ++i) {
    evaluate_circuit_into(ctx, pooled, circuit.module,
                          circuit.cycles_per_inference, lib, wl, opts);
  }
  EXPECT_EQ(pooled.energy_mj, fresh.energy_mj);
  EXPECT_EQ(pooled.area_cm2, fresh.area_cm2);
  EXPECT_EQ(pooled.frequency_hz, fresh.frequency_hz);
  EXPECT_EQ(pooled.functional_transitions, fresh.functional_transitions);
  EXPECT_EQ(pooled.glitch_transitions, fresh.glitch_transitions);
  EXPECT_EQ(pooled.logic_depth, fresh.logic_depth);
  EXPECT_EQ(pooled.num_cells, fresh.num_cells);
}

}  // namespace
}  // namespace pml::core
