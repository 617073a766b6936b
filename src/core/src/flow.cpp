#include "pml/core/flow.hpp"

#include "pml/core/activity.hpp"
#include "pml/ml/metrics.hpp"
#include "pml/quant/formats.hpp"

namespace pml::core {

CircuitWorkload make_svm_workload(const quant::QuantizedSvm& model,
                                  const ml::Dataset& test) {
  CircuitWorkload wl;
  wl.feature_codes.reserve(test.size());
  wl.expected_class.reserve(test.size());
  for (const auto& x : test.X) {
    auto codes = quant::quantize_features(x, model.input_format);
    wl.expected_class.push_back(model.predict_codes(codes));
    wl.feature_codes.push_back(std::move(codes));
  }
  return wl;
}

SequentialSvmDesign design_sequential_svm(
    const ml::Dataset& train, const ml::Dataset& test,
    const cells::CellLibrary& lib, const SequentialSvmFlowOptions& options) {
  SequentialSvmDesign design;

  // 1. Tuned float OvR model.
  design.float_model = ml::train_tuned(
      train, ml::MulticlassStrategy::kOneVsRest, options.c_grid,
      options.class_balanced, options.validation_fraction, options.seed);
  design.float_test_accuracy =
      ml::accuracy(design.float_model.predict_all(test.X), test.y);

  // 2. Lowest-precision search on a validation slice of the training set
  //    (never the test set).
  const ml::Split val = ml::stratified_split(
      train, 1.0 - options.validation_fraction, options.seed ^ 0xBEEF);
  design.precision = quant::search_min_precision(design.float_model, val.test,
                                                 options.precision);

  // 3. Retrain with inputs snapped to the selected low-precision grid, so
  //    training sees exactly what the hardware will see.
  const auto in_fmt = quant::input_format(design.precision.input_bits);
  ml::Dataset snapped = train;
  for (auto& row : snapped.X) row = quant::snap_features(row, in_fmt);
  design.float_model = ml::train_tuned(
      snapped, ml::MulticlassStrategy::kOneVsRest, options.c_grid,
      options.class_balanced, options.validation_fraction, options.seed);

  // 3b. OvR bias calibration on a validation slice (free in hardware: the
  //     biases are stored constants).
  if (options.bias_calibration_rounds > 0) {
    const ml::Split cal = ml::stratified_split(
        snapped, 1.0 - options.validation_fraction, options.seed ^ 0xCA11);
    ml::calibrate_ovr_biases(design.float_model, cal.test,
                             options.bias_calibration_rounds);
  }

  // 4. Post-training quantization at the selected precision.
  design.quantized =
      quant::quantize_svm(design.float_model, design.precision.input_bits,
                          design.precision.weight_bits);
  design.quantized_test_accuracy =
      ml::accuracy(design.quantized.predict_all(test.X), test.y);

  // 5-7. Circuit, optimization, verification, timing, power.  The circuit
  // is generated raw and optimized once, here, against the real workload
  // (a cost-driven flow's switching-energy model probes it; generating
  // optimized would let the cell-count fallback melt the netlist before
  // that model could veto).  The evaluation re-runs the recipe that won
  // ("best" resolves to a concrete name), which converges in one cheap
  // sweep.
  design.circuit = arch::build_sequential_svm(
      design.quantized, opt::OptOptions{.enabled = false});
  const CircuitWorkload wl = make_svm_workload(design.quantized, test);
  EvaluateOptions eopts = options.evaluate;
  design.circuit.opt = optimize_on_workload(
      design.circuit.module, design.circuit.cycles_per_inference, lib, wl,
      eopts.optimize);
  eopts.optimize.flow = design.circuit.opt.recipe;
  design.hw = evaluate_circuit(design.circuit.module,
                               design.circuit.cycles_per_inference, lib, wl,
                               eopts);
  design.hw.dataset = train.name;
  design.hw.model = "Ours";
  design.hw.accuracy = design.quantized_test_accuracy;
  // evaluate_circuit saw the optimized module; report the raw-generation
  // shape as the "pre" side, and the real optimization bill (the
  // evaluation's re-run is just the one-sweep convergence check) as the
  // opt profile.
  design.hw.pre_opt_stats = design.circuit.opt.before;
  if (eopts.optimize.enabled) {
    design.hw.opt_pass_times = design.circuit.opt.pass_times;
    design.hw.opt_seconds = design.circuit.opt.opt_seconds;
    design.hw.opt_cost_probes = design.circuit.opt.cost_probes;
  }
  return design;
}

}  // namespace pml::core
