#pragma once
// State-of-the-art baselines of Table I, regenerated from scratch:
//
//   [2] Mubarik et al., MICRO'20  - fully-parallel bespoke OvO SVM,
//       plain post-training quantization at a fixed (8-bit) precision.
//   [3] Armeniakos et al., TCAD'23 - the same architecture after
//       model-to-circuit cross-approximation (CSD truncation here).
//   [4] Armeniakos et al., TC'23  - fully-parallel bespoke approximate MLP.
//
// Each returns the trained+quantized reference model and the evaluated
// circuit so benches can break results down further.

#include <cstdint>

#include "pml/arch/mlp_circuit.hpp"
#include "pml/arch/parallel_svm.hpp"
#include "pml/cells/library.hpp"
#include "pml/core/evaluate.hpp"
#include "pml/core/hardware_report.hpp"
#include "pml/ml/dataset.hpp"
#include "pml/ml/multiclass.hpp"
#include "pml/quant/mlp_quant.hpp"
#include "pml/quant/svm_quant.hpp"

namespace pml::core {

struct ParallelSvmBaselineOptions {
  int input_bits = 8;
  int weight_bits = 8;
  /// <0: exact coefficients ([2]); >=0: CSD digits kept ([3]).
  int approx_csd_digits = -1;
  double C = 1.0;
  std::uint64_t seed = 7;
  EvaluateOptions evaluate;
};

struct ParallelSvmBaseline {
  quant::QuantizedSvm quantized;
  arch::ParallelSvmCircuit circuit;
  HardwareReport hw;
};

/// Train OvO on `train` (options.C, options.seed), then build as below.
[[nodiscard]] ParallelSvmBaseline build_parallel_svm_baseline(
    const ml::Dataset& train, const ml::Dataset& test,
    const cells::CellLibrary& lib, const ParallelSvmBaselineOptions& options);

/// Quantize an OvO `model` trained on `train`, (optionally) approximate,
/// build the parallel circuit, verify bit-exact, and measure.  SVM [2] and
/// SVM [3] share one training this way.
[[nodiscard]] ParallelSvmBaseline build_parallel_svm_baseline(
    const ml::MulticlassSvm& model, const ml::Dataset& train,
    const ml::Dataset& test, const cells::CellLibrary& lib,
    const ParallelSvmBaselineOptions& options);

/// The OvO training behind build_parallel_svm_baseline.
[[nodiscard]] ml::MulticlassSvm train_parallel_svm_baseline(
    const ml::Dataset& train, const ParallelSvmBaselineOptions& options);

struct MlpBaselineOptions {
  int hidden = 4;
  int input_bits = 5;
  int weight_bits = 5;
  int hidden_bits = 5;
  int approx_csd_digits = 1;   ///< TC'23 approximates aggressively
  int epochs = 60;
  std::uint64_t seed = 7;
  EvaluateOptions evaluate;
};

struct MlpBaseline {
  quant::QuantizedMlp quantized;
  arch::MlpCircuit circuit;
  HardwareReport hw;
};

[[nodiscard]] MlpBaseline build_mlp_baseline(const ml::Dataset& train,
                                             const ml::Dataset& test,
                                             const cells::CellLibrary& lib,
                                             const MlpBaselineOptions& options);

}  // namespace pml::core
