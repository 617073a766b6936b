// The evaluation harness: verification gating, report fields, failure
// injection.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "pml/arch/sequential_svm.hpp"
#include "pml/core/evaluate.hpp"

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

CircuitWorkload make_workload(const quant::QuantizedSvm& q) {
  CircuitWorkload wl;
  for (std::int64_t a = 0; a <= 7; ++a) {
    for (std::int64_t b = 0; b <= 7; ++b) {
      wl.feature_codes.push_back({a, b});
      wl.expected_class.push_back(q.predict_codes({a, b}));
    }
  }
  return wl;
}

TEST(Evaluate, ProducesConsistentReport) {
  const auto q = tiny_model();
  auto circuit = arch::build_sequential_svm(q);
  const auto lib = cells::CellLibrary::egfet();
  const auto wl = make_workload(q);
  const HardwareReport rep =
      evaluate_circuit(circuit.module, circuit.cycles_per_inference, lib, wl);

  EXPECT_TRUE(rep.verified);
  EXPECT_EQ(rep.verified_samples, wl.feature_codes.size());
  EXPECT_GT(rep.area_cm2, 0.0);
  EXPECT_GT(rep.static_mw, 0.0);
  EXPECT_GT(rep.dynamic_mw, 0.0);
  EXPECT_NEAR(rep.power_mw, rep.static_mw + rep.dynamic_mw, 1e-9);
  EXPECT_GT(rep.frequency_hz, 0.0);
  // latency = cycles / frequency.
  EXPECT_NEAR(rep.latency_ms, 3.0 * 1000.0 / rep.frequency_hz, 1e-6);
  EXPECT_NEAR(rep.energy_mj, rep.power_mw * rep.latency_ms / 1000.0, 1e-9);
  EXPECT_EQ(rep.cycles_per_inference, 3);
  EXPECT_GT(rep.num_cells, 0u);
  EXPECT_GT(rep.num_dffs, 0u);
  EXPECT_GT(rep.logic_depth, 0);
  EXPECT_FALSE(rep.groups.empty());
}

TEST(Evaluate, ThrowsOnModelMismatch) {
  const auto q = tiny_model();
  auto circuit = arch::build_sequential_svm(q);
  const auto lib = cells::CellLibrary::egfet();
  auto wl = make_workload(q);
  // Corrupt one expectation.
  wl.expected_class[5] = (wl.expected_class[5] + 1) % 3;
  EXPECT_THROW((void)evaluate_circuit(circuit.module,
                                      circuit.cycles_per_inference, lib, wl),
               std::runtime_error);
}

TEST(Evaluate, MismatchToleratedWhenNotBitExactRequired) {
  const auto q = tiny_model();
  auto circuit = arch::build_sequential_svm(q);
  const auto lib = cells::CellLibrary::egfet();
  auto wl = make_workload(q);
  wl.expected_class[5] = (wl.expected_class[5] + 1) % 3;
  EvaluateOptions opts;
  opts.require_bit_exact = false;
  const HardwareReport rep = evaluate_circuit(
      circuit.module, circuit.cycles_per_inference, lib, wl, opts);
  EXPECT_FALSE(rep.verified);
}

TEST(Evaluate, RejectsEmptyOrMalformedWorkloads) {
  const auto q = tiny_model();
  auto circuit = arch::build_sequential_svm(q);
  const auto lib = cells::CellLibrary::egfet();
  CircuitWorkload empty;
  EXPECT_THROW((void)evaluate_circuit(circuit.module, 3, lib, empty),
               std::invalid_argument);
  CircuitWorkload lopsided;
  lopsided.feature_codes = {{1, 2}};
  EXPECT_THROW((void)evaluate_circuit(circuit.module, 3, lib, lopsided),
               std::invalid_argument);
}

TEST(Evaluate, HonorsCallerMaxMismatches) {
  const auto q = tiny_model();
  auto circuit = arch::build_sequential_svm(q);
  const auto lib = cells::CellLibrary::egfet();
  // Two batches' worth of samples, every expectation corrupted.
  const auto base = make_workload(q);
  CircuitWorkload wl = base;
  wl.feature_codes.insert(wl.feature_codes.end(), base.feature_codes.begin(),
                          base.feature_codes.end());
  wl.expected_class.insert(wl.expected_class.end(), base.expected_class.begin(),
                           base.expected_class.end());
  for (auto& e : wl.expected_class) e = (e + 1) % 3;

  // Default options + no bit-exactness: every mismatch is counted.
  EvaluateOptions count_all;
  count_all.require_bit_exact = false;
  const HardwareReport all = evaluate_circuit(
      circuit.module, circuit.cycles_per_inference, lib, wl, count_all);
  EXPECT_FALSE(all.verified);
  EXPECT_EQ(all.verified_mismatches, wl.feature_codes.size());

  // A caller-set cap stops the scan early instead of being overwritten.
  // Pin the 64-lane backend so "early" is observable: a wider backend
  // scans this whole workload in its first batch.
  EvaluateOptions capped = count_all;
  capped.verify.max_mismatches = 1;
  capped.verify.num_threads = 1;
  capped.backend = sim::Backend::kU64;
  const HardwareReport few = evaluate_circuit(
      circuit.module, circuit.cycles_per_inference, lib, wl, capped);
  EXPECT_FALSE(few.verified);
  EXPECT_GE(few.verified_mismatches, 1u);
  EXPECT_LT(few.verified_mismatches, wl.feature_codes.size());

  // With bit-exactness on, an explicit cap is honored too (the old code
  // silently forced fail-fast): the thrown message carries the full count.
  EvaluateOptions exact;
  exact.verify.max_mismatches = wl.feature_codes.size();
  try {
    (void)evaluate_circuit(circuit.module, circuit.cycles_per_inference, lib,
                           wl, exact);
    FAIL() << "expected a mismatch throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  std::to_string(wl.feature_codes.size()) +
                  " mismatch(es)"),
              std::string::npos)
        << e.what();
  }
}

TEST(Evaluate, PowerReplayDeterministicAcrossThreadCounts) {
  const auto q = tiny_model();
  auto circuit = arch::build_sequential_svm(q);
  const auto lib = cells::CellLibrary::egfet();
  const auto wl = make_workload(q);
  EvaluateOptions single;
  single.power_threads = 1;
  EvaluateOptions multi = single;
  multi.power_threads = 4;
  const HardwareReport a = evaluate_circuit(
      circuit.module, circuit.cycles_per_inference, lib, wl, single);
  const HardwareReport b = evaluate_circuit(
      circuit.module, circuit.cycles_per_inference, lib, wl, multi);
  // The merged activity is deterministic in the samples alone (one lane
  // each), so the power numbers are bit-identical across worker
  // configurations.
  EXPECT_EQ(a.dynamic_mw, b.dynamic_mw);
  EXPECT_EQ(a.energy_mj, b.energy_mj);
}

TEST(Evaluate, PowerSampleSubsetStillFillsReport) {
  const auto q = tiny_model();
  auto circuit = arch::build_sequential_svm(q);
  const auto lib = cells::CellLibrary::egfet();
  const auto wl = make_workload(q);
  EvaluateOptions opts;
  opts.power_samples = 4;
  const HardwareReport rep = evaluate_circuit(
      circuit.module, circuit.cycles_per_inference, lib, wl, opts);
  EXPECT_TRUE(rep.verified);
  EXPECT_GT(rep.dynamic_mw, 0.0);
}

}  // namespace
}  // namespace pml::core
