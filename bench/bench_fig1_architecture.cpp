// Fig. 1 companion: dissects the generated sequential SVM circuit into the
// paper's four components (control / storage / compute engine / voter),
// reports per-component area & power, walks one classification cycle by
// cycle, and prints the critical path that sets the clock frequency.
//
// Fig. 1 is an architecture diagram (no measured data); this bench
// demonstrates that the generated hardware *is* that architecture.

#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "pml/core/flow.hpp"
#include "pml/report/table.hpp"
#include "pml/sim/cycle_sim.hpp"
#include "pml/sta/timing.hpp"

using namespace pml;

int main(int argc, char** argv) {
  const bool quick = benchutil::quick_mode(argc, argv);
  const auto data = benchutil::prepare(ml::UciProfile::kCardio);
  const cells::CellLibrary lib = cells::CellLibrary::egfet();

  std::cout << "=== Fig. 1: sequential printed SVM architecture (Cardio) ==="
            << "\n\n";
  core::SequentialSvmFlowOptions options;
  options.evaluate.power_samples = quick ? 16 : 48;
  const core::SequentialSvmDesign design =
      core::design_sequential_svm(data.train, data.test, lib, options);
  const auto& q = design.quantized;

  std::cout << "model: " << q.num_classes << " OvR classifiers x "
            << q.classifiers.front().w.size() << " features, "
            << q.input_format.to_string() << " inputs, "
            << q.weight_format.to_string() << " weights, score width "
            << q.score_bits() << " bits\n"
            << "circuit: " << design.hw.num_cells << " cells, "
            << design.hw.num_dffs << " DFFs, one classifier per cycle, "
            << design.circuit.cycles_per_inference << " cycles/inference\n\n";

  // --- per-component breakdown (the four blocks of Fig. 1) ----------------
  report::Table comp({"Component (Fig. 1)", "Cells", "Area (cm2)",
                      "Area (%)", "Static (mW)", "Dynamic (mW)"});
  double total_area = 0.0;
  for (const auto& g : design.hw.groups) total_area += g.area_cm2;
  for (const auto& g : design.hw.groups) {
    if (g.cells == 0) continue;
    comp.add_row({g.name, std::to_string(g.cells), report::fmt(g.area_cm2, 2),
                  report::fmt(100.0 * g.area_cm2 / total_area, 1),
                  report::fmt(g.static_mw, 2), report::fmt(g.dynamic_mw, 2)});
  }
  comp.print(std::cout);
  std::cout << "\nThe compute engine (m multipliers + multi-operand adder) "
               "dominates;\nthe voter is two registers and one comparator; "
               "control is a log2(n)-bit counter.\n\n";

  // --- cycle-by-cycle walk of one classification ---------------------------
  std::cout << "=== One classification, cycle by cycle ===\n";
  sim::CycleSimulator sim(design.circuit.module);
  const auto xq = quant::quantize_features(data.test.X[0], q.input_format);
  for (std::size_t j = 0; j < xq.size(); ++j) {
    sim.set_port(std::string("x").append(std::to_string(j)),
                 static_cast<std::uint64_t>(xq[j]));
  }
  report::Table walk({"Cycle", "SV select (counter)", "Score (compute)",
                      "Best id (voter)", "Done"});
  for (int c = 0; c < design.circuit.cycles_per_inference; ++c) {
    sim.propagate();
    walk.add_row({std::to_string(c), std::to_string(c),
                  std::to_string(sim.port_signed("score")),
                  std::to_string(sim.port_unsigned("class")),
                  sim.port_unsigned("done") ? "yes" : "no"});
    sim.step();
  }
  walk.print(std::cout);
  std::cout << "predicted class: " << sim.port_unsigned("class")
            << " (model: " << q.predict_codes(xq) << ", label: "
            << data.test.y[0] << ")\n\n";

  // --- the critical path that sets the Hz-range clock ---------------------
  const sta::TimingReport timing = sta::analyze(design.circuit.module, lib);
  std::cout << "=== Timing ===\n"
            << "critical path: " << report::fmt(timing.critical_path_ms, 2)
            << " ms through " << timing.logic_depth << " gates -> "
            << report::fmt(timing.max_frequency_hz, 1) << " Hz ("
            << timing.sink_description << ")\n"
            << "latency: " << design.circuit.cycles_per_inference
            << " cycles = " << report::fmt(design.hw.latency_ms, 0)
            << " ms; energy/classification: "
            << report::fmt(design.hw.energy_mj, 3) << " mJ\n";
  return 0;
}
