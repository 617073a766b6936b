// End-to-end flow integration: train -> quantize -> circuit -> verify ->
// measure, on a reduced dataset for speed.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>

#include "pml/arch/sequential_svm.hpp"
#include "pml/core/flow.hpp"
#include "pml/ml/scaler.hpp"
#include "pml/ml/synthetic_datasets.hpp"
#include "pml/opt/pass_manager.hpp"
#include "pml/svc/sweep_service.hpp"

namespace pml::core {
namespace {

struct Data {
  ml::Dataset train;
  ml::Dataset test;
};

Data cardio_subset() {
  // A 600-sample slice keeps the integration test fast.
  ml::Dataset d = ml::make_uci_like(ml::UciProfile::kCardio);
  d.X.resize(600);
  d.y.resize(600);
  ml::Split s = ml::stratified_split(d, 0.8, 7);
  ml::MinMaxScaler scaler;
  scaler.fit(s.train);
  return {scaler.transform(s.train), scaler.transform(s.test)};
}

TEST(Flow, EndToEndProducesVerifiedDesign) {
  const Data data = cardio_subset();
  const auto lib = cells::CellLibrary::egfet();
  SequentialSvmFlowOptions opts;
  opts.c_grid = {0.25, 1.0, 4.0};
  opts.evaluate.power_samples = 16;
  const SequentialSvmDesign design =
      design_sequential_svm(data.train, data.test, lib, opts);

  EXPECT_TRUE(design.hw.verified);
  EXPECT_EQ(design.hw.verified_samples, data.test.size());
  EXPECT_EQ(design.hw.model, "Ours");
  EXPECT_GT(design.float_test_accuracy, 0.8);
  EXPECT_GT(design.quantized_test_accuracy, 0.8);
  EXPECT_EQ(design.circuit.cycles_per_inference, 3);
  EXPECT_GE(design.precision.input_bits, opts.precision.min_input_bits);
  EXPECT_LE(design.precision.weight_bits, opts.precision.max_weight_bits);
  EXPECT_EQ(design.quantized.input_format.total_bits,
            design.precision.input_bits);
  // The quantized model must not fall far below the float model.
  EXPECT_GT(design.quantized_test_accuracy,
            design.float_test_accuracy - 0.06);
  EXPECT_GT(design.hw.energy_mj, 0.0);
  EXPECT_GT(design.hw.frequency_hz, 1.0);
  EXPECT_LT(design.hw.frequency_hz, 200.0) << "printed circuits run in Hz";
}

TEST(Flow, WorkloadExpectationsComeFromIntegerModel) {
  const Data data = cardio_subset();
  const auto lib = cells::CellLibrary::egfet();
  SequentialSvmFlowOptions opts;
  opts.c_grid = {1.0};
  opts.bias_calibration_rounds = 0;
  opts.evaluate.power_samples = 8;
  const SequentialSvmDesign design =
      design_sequential_svm(data.train, data.test, lib, opts);
  const CircuitWorkload wl = make_svm_workload(design.quantized, data.test);
  ASSERT_EQ(wl.feature_codes.size(), data.test.size());
  for (std::size_t i = 0; i < wl.feature_codes.size(); ++i) {
    EXPECT_EQ(wl.expected_class[i],
              design.quantized.predict_codes(wl.feature_codes[i]));
    for (const auto code : wl.feature_codes[i]) {
      EXPECT_GE(code, 0);
      EXPECT_LE(code, design.quantized.input_format.max_code());
    }
  }
}

// --- flow-recipe selection plumbing ------------------------------------------

/// A small quantized SVM shared by the flow-selection tests (training is
/// the slow part; the plumbing under test starts at the circuit).
quant::QuantizedSvm plumbing_model() {
  quant::QuantizedSvm q;
  q.strategy = ml::MulticlassStrategy::kOneVsRest;
  q.num_classes = 3;
  q.input_format = quant::input_format(3);
  q.weight_format =
      fixed::FixedFormat{.total_bits = 4, .frac_bits = 3, .is_signed = true};
  q.classifiers = {quant::QuantizedClassifier{{3, -2, 1}, 1},
                   quant::QuantizedClassifier{{-1, 4, 2}, 0},
                   quant::QuantizedClassifier{{2, 2, -3}, -2}};
  return q;
}

CircuitWorkload plumbing_workload(const quant::QuantizedSvm& q) {
  CircuitWorkload wl;
  for (std::int64_t a = 0; a <= 7; ++a) {
    for (std::int64_t b = 0; b <= 7; ++b) {
      wl.feature_codes.push_back({a, b, (a + b) & 7});
      wl.expected_class.push_back(q.predict_codes(wl.feature_codes.back()));
    }
  }
  return wl;
}

TEST(FlowSelection, EvaluateThreadsTheRecipeIntoTheReport) {
  const auto lib = cells::CellLibrary::egfet();
  const auto q = plumbing_model();
  const auto raw =
      arch::build_sequential_svm(q, opt::OptOptions{.enabled = false});
  const CircuitWorkload wl = plumbing_workload(q);
  EvaluateOptions opts;
  opts.power_samples = 16;

  auto eval_flow = [&](const std::string& flow) {
    EvaluateOptions o = opts;
    o.optimize.flow = flow;
    return evaluate_circuit(raw.module, raw.cycles_per_inference, lib, wl, o);
  };
  const HardwareReport area = eval_flow("area");
  const HardwareReport energy = eval_flow("energy");
  const HardwareReport none = eval_flow("none");
  EXPECT_EQ(area.opt_flow, "area");
  EXPECT_EQ(energy.opt_flow, "energy");
  EXPECT_EQ(none.opt_flow, "none");
  // "none" runs no passes; "energy" (CSE+DCE) removes no more than the
  // full "area" pipeline.
  EXPECT_EQ(none.num_cells, raw.module.stats().num_cells);
  EXPECT_LE(area.num_cells, energy.num_cells);
  EXPECT_LE(energy.num_cells, none.num_cells);
  // All flows report the same pre-opt shape and a verified design.
  EXPECT_EQ(area.pre_opt_stats.num_cells, raw.module.stats().num_cells);
  EXPECT_TRUE(area.verified && energy.verified && none.verified);

  // Disabled optimizer reports "none" too.
  EvaluateOptions off = opts;
  off.optimize.enabled = false;
  const HardwareReport raw_rep = evaluate_circuit(
      raw.module, raw.cycles_per_inference, lib, wl, off);
  EXPECT_EQ(raw_rep.opt_flow, "none");

  // Unknown recipe names surface as std::invalid_argument.
  EvaluateOptions bad = opts;
  bad.optimize.flow = "no-such-flow";
  EXPECT_THROW((void)evaluate_circuit(raw.module, raw.cycles_per_inference,
                                      lib, wl, bad),
               std::invalid_argument);
}

TEST(FlowSelection, GlitchSplitLandsInTheReport) {
  const auto lib = cells::CellLibrary::egfet();
  const auto q = plumbing_model();
  const auto circuit = arch::build_sequential_svm(q);
  const CircuitWorkload wl = plumbing_workload(q);
  EvaluateOptions opts;
  opts.power_samples = 16;
  const HardwareReport rep = evaluate_circuit(
      circuit.module, circuit.cycles_per_inference, lib, wl, opts);
  EXPECT_GT(rep.functional_transitions, 0u);
  EXPECT_GT(rep.glitch_transitions, 0u);  // delay-skewed datapaths glitch
  EXPECT_GE(rep.dynamic_mw, rep.dynamic_glitch_mw);
  EXPECT_GT(rep.dynamic_glitch_mw, 0.0);
}

TEST(FlowSelection, SweepFlowsCoversAndVerifiesEveryRecipe) {
  const auto lib = cells::CellLibrary::egfet();
  const auto q = plumbing_model();
  const auto raw =
      arch::build_sequential_svm(q, opt::OptOptions{.enabled = false});
  const CircuitWorkload wl = plumbing_workload(q);
  EvaluateOptions opts;
  opts.power_samples = 16;
  svc::SweepService service(lib);
  const auto rows = service.sweep_flows(
      std::make_shared<const netlist::Module>(raw.module),
      raw.cycles_per_inference, std::make_shared<const CircuitWorkload>(wl),
      opts);
  ASSERT_EQ(rows.size(), 4u);  // none, area, energy, balanced
  for (const auto& row : rows) {
    EXPECT_EQ(row.hw.opt_flow, row.flow);
    EXPECT_TRUE(row.hw.verified) << row.flow;
    EXPECT_GT(row.hw.energy_mj, 0.0) << row.flow;
  }
}

TEST(FlowSelection, DesignFlowHonorsTheFlowOption) {
  const Data data = cardio_subset();
  const auto lib = cells::CellLibrary::egfet();
  SequentialSvmFlowOptions opts;
  opts.c_grid = {1.0};
  opts.bias_calibration_rounds = 0;
  opts.evaluate.power_samples = 8;
  opts.evaluate.optimize.flow = "energy";
  const SequentialSvmDesign design =
      design_sequential_svm(data.train, data.test, lib, opts);
  EXPECT_EQ(design.hw.opt_flow, "energy");
  EXPECT_EQ(design.circuit.opt.recipe, "energy");
  EXPECT_TRUE(design.hw.verified);
}

TEST(FlowSelection, DesignFlowOptimizesLikeAnEvaluationOfTheRawCircuit) {
  // design_sequential_svm optimizes its raw circuit once against the test
  // workload, then evaluates under the recipe that won: the report must
  // match evaluate_circuit applying the same flow to the raw generator
  // output, and name a concrete recipe even under the "best" policy.
  const Data data = cardio_subset();
  const auto lib = cells::CellLibrary::egfet();
  for (const std::string flow : {"balanced", opt::kBestFlow}) {
    SequentialSvmFlowOptions opts;
    opts.c_grid = {1.0};
    opts.bias_calibration_rounds = 0;
    opts.evaluate.power_samples = 8;
    opts.evaluate.optimize.flow = flow;
    const SequentialSvmDesign design =
        design_sequential_svm(data.train, data.test, lib, opts);
    EXPECT_NO_THROW((void)opt::flow_recipe(design.hw.opt_flow)) << flow;
    if (flow != opt::kBestFlow) {
      EXPECT_EQ(design.hw.opt_flow, flow);
    }
    EXPECT_EQ(design.circuit.opt.recipe, design.hw.opt_flow) << flow;
    EXPECT_TRUE(design.hw.verified) << flow;

    const auto raw = arch::build_sequential_svm(
        design.quantized, opt::OptOptions{.enabled = false});
    const HardwareReport ref = evaluate_circuit(
        raw.module, raw.cycles_per_inference, lib,
        make_svm_workload(design.quantized, data.test), opts.evaluate);
    EXPECT_EQ(design.hw.opt_flow, ref.opt_flow) << flow;
    EXPECT_EQ(design.hw.num_cells, ref.num_cells) << flow;
    EXPECT_EQ(design.hw.energy_mj, ref.energy_mj) << flow;
    const netlist::ModuleStats& pre = design.hw.pre_opt_stats;
    const netlist::ModuleStats& ref_pre = ref.pre_opt_stats;
    EXPECT_EQ(pre.num_cells, ref_pre.num_cells) << flow;
    EXPECT_EQ(pre.num_nets, ref_pre.num_nets) << flow;
    EXPECT_EQ(pre.num_dffs, ref_pre.num_dffs) << flow;
    EXPECT_TRUE(std::equal(std::begin(pre.counts_by_type),
                           std::end(pre.counts_by_type),
                           std::begin(ref_pre.counts_by_type)))
        << flow;
    EXPECT_EQ(pre.counts_by_group, ref_pre.counts_by_group) << flow;
    EXPECT_EQ(design.hw.opt_cost_probes, ref.opt_cost_probes) << flow;
    EXPECT_GT(design.hw.opt_cost_probes, 0u) << flow;
  }
}

TEST(Flow, DeterministicForFixedSeeds) {
  const Data data = cardio_subset();
  const auto lib = cells::CellLibrary::egfet();
  SequentialSvmFlowOptions opts;
  opts.c_grid = {1.0, 4.0};
  opts.evaluate.power_samples = 8;
  const auto a = design_sequential_svm(data.train, data.test, lib, opts);
  const auto b = design_sequential_svm(data.train, data.test, lib, opts);
  EXPECT_EQ(a.precision.input_bits, b.precision.input_bits);
  EXPECT_EQ(a.precision.weight_bits, b.precision.weight_bits);
  EXPECT_DOUBLE_EQ(a.quantized_test_accuracy, b.quantized_test_accuracy);
  EXPECT_DOUBLE_EQ(a.hw.energy_mj, b.hw.energy_mj);
}

}  // namespace
}  // namespace pml::core
