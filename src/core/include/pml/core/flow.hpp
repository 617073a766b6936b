#pragma once
// The paper's end-to-end design flow for OUR sequential SVMs:
//
//   1. hyperparameter-tuned One-vs-Rest training (C grid + class-balanced
//      costs on a validation slice),
//   2. lowest-precision search for inputs/weights (validation slice),
//   3. retraining with inputs snapped to the chosen low-precision grid
//      ("we train our SVMs with low-precision inputs"),
//   4. post-training quantization of weights and biases,
//   5. sequential circuit generation (arch::build_sequential_svm),
//   6. bit-exact gate-level verification over the full test set,
//   7. STA + glitch-aware power -> the Table I row.

#include <cstdint>
#include <string>
#include <vector>

#include "pml/arch/sequential_svm.hpp"
#include "pml/cells/library.hpp"
#include "pml/core/evaluate.hpp"
#include "pml/core/hardware_report.hpp"
#include "pml/ml/dataset.hpp"
#include "pml/ml/multiclass.hpp"
#include "pml/quant/search.hpp"
#include "pml/quant/svm_quant.hpp"

namespace pml::core {

struct SequentialSvmFlowOptions {
  std::vector<double> c_grid = {0.02, 0.05, 0.1, 0.25, 0.5,
                                1.0,  2.0,  4.0, 8.0,  16.0};
  /// Let the tuner also try class-balanced costs (it keeps whichever wins
  /// validation accuracy).
  bool class_balanced = true;
  /// Post-training OvR bias calibration rounds (0 disables).
  int bias_calibration_rounds = 3;
  double validation_fraction = 0.25;
  quant::PrecisionSearchOptions precision;
  std::uint64_t seed = 7;
  /// evaluate.optimize.flow ("area", "energy", "balanced", "none",
  /// "best") optimizes the raw circuit once, against the test workload;
  /// the evaluation re-runs the winning recipe.
  EvaluateOptions evaluate;
};

struct SequentialSvmDesign {
  ml::MulticlassSvm float_model;
  quant::QuantizedSvm quantized;
  quant::PrecisionSearchResult precision;
  double float_test_accuracy = 0.0;
  double quantized_test_accuracy = 0.0;
  arch::SequentialSvmCircuit circuit;
  HardwareReport hw;  ///< dataset/model/accuracy filled in
};

/// Run the full flow.  `train`/`test` must already be min-max normalized.
[[nodiscard]] SequentialSvmDesign design_sequential_svm(
    const ml::Dataset& train, const ml::Dataset& test,
    const cells::CellLibrary& lib, const SequentialSvmFlowOptions& options = {});

/// Helper shared with the baselines: quantize the test set and produce the
/// bit-exact reference workload for a QuantizedSvm.
[[nodiscard]] CircuitWorkload make_svm_workload(const quant::QuantizedSvm& model,
                                                const ml::Dataset& test);

// --- flow-recipe sweeps ------------------------------------------------------

/// One flow recipe applied to the same raw design: the full hardware
/// evaluation under that recipe.  The HardwareReport carries the recipe
/// name, cells, area, energy, and the functional/glitch transition split
/// — everything the area-vs-glitch-energy trade-off table needs.  Rows
/// come from svc::SweepService::sweep_flows.
struct FlowSweepRow {
  std::string flow;
  HardwareReport hw;
};

}  // namespace pml::core
