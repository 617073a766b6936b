#include "pml/core/baselines.hpp"

#include "pml/core/flow.hpp"
#include "pml/ml/metrics.hpp"
#include "pml/ml/mlp.hpp"
#include "pml/ml/multiclass.hpp"
#include "pml/quant/formats.hpp"

namespace pml::core {

ml::MulticlassSvm train_parallel_svm_baseline(
    const ml::Dataset& train, const ParallelSvmBaselineOptions& options) {
  ml::MulticlassTrainOptions topts;
  topts.base.C = options.C;
  topts.base.seed = options.seed;
  topts.class_balanced = false;  // the baselines train plainly
  return ml::train_one_vs_one(train, topts);
}

ParallelSvmBaseline build_parallel_svm_baseline(
    const ml::Dataset& train, const ml::Dataset& test,
    const cells::CellLibrary& lib, const ParallelSvmBaselineOptions& options) {
  return build_parallel_svm_baseline(
      train_parallel_svm_baseline(train, options), train, test, lib, options);
}

ParallelSvmBaseline build_parallel_svm_baseline(
    const ml::MulticlassSvm& model, const ml::Dataset& train,
    const ml::Dataset& test, const cells::CellLibrary& lib,
    const ParallelSvmBaselineOptions& options) {
  ParallelSvmBaseline out;
  out.quantized =
      quant::quantize_svm(model, options.input_bits, options.weight_bits);
  if (options.approx_csd_digits >= 0) {
    out.quantized =
        quant::approximate_svm_csd(out.quantized, options.approx_csd_digits);
  }
  out.circuit = arch::build_parallel_svm(out.quantized);

  out.hw = evaluate_circuit(out.circuit.module,
                            out.circuit.cycles_per_inference, lib,
                            make_svm_workload(out.quantized, test),
                            options.evaluate);
  out.hw.dataset = train.name;
  out.hw.model = options.approx_csd_digits >= 0 ? "SVM [3]" : "SVM [2]";
  out.hw.accuracy = ml::accuracy(out.quantized.predict_all(test.X), test.y);
  out.hw.pre_opt_stats = out.circuit.opt.before;  // raw generator shape
  return out;
}

MlpBaseline build_mlp_baseline(const ml::Dataset& train,
                               const ml::Dataset& test,
                               const cells::CellLibrary& lib,
                               const MlpBaselineOptions& options) {
  ml::MlpTrainOptions topts;
  topts.hidden = options.hidden;
  topts.epochs = options.epochs;
  topts.seed = options.seed;
  const ml::MlpModel model = ml::train_mlp(train, topts);

  MlpBaseline out;
  out.quantized = quant::quantize_mlp(model, train, options.input_bits,
                                      options.weight_bits,
                                      options.hidden_bits);
  if (options.approx_csd_digits >= 0) {
    out.quantized =
        arch::approximate_mlp_csd(out.quantized, options.approx_csd_digits);
  }
  out.circuit = arch::build_mlp_circuit(out.quantized);

  CircuitWorkload wl;
  wl.feature_codes.reserve(test.size());
  wl.expected_class.reserve(test.size());
  for (const auto& x : test.X) {
    auto codes = quant::quantize_features(x, out.quantized.input_format);
    wl.expected_class.push_back(out.quantized.predict_codes(codes));
    wl.feature_codes.push_back(std::move(codes));
  }
  out.hw = evaluate_circuit(out.circuit.module,
                            out.circuit.cycles_per_inference, lib, wl,
                            options.evaluate);
  out.hw.dataset = train.name;
  out.hw.model = "MLP [4]";
  out.hw.accuracy = ml::accuracy(out.quantized.predict_all(test.X), test.y);
  out.hw.pre_opt_stats = out.circuit.opt.before;  // raw generator shape
  return out;
}

}  // namespace pml::core
