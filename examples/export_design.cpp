// Export a generated design: structural Verilog for an external flow and
// a VCD waveform of one classification for GTKWave.
//
//   $ ./export_design [out_dir] [--flow <area|energy|balanced|none|best>]
//                     [--trace trace.json] [--metrics]
//
// Writes <out>/seq_svm.v and <out>/classify.vcd (the netlist optimized by
// the selected flow recipe), and prints the per-recipe area/energy
// trade-off table (evaluated through the cached svc::SweepService) plus
// the optimizer's per-pass cost profile for the design.  --trace dumps a
// Chrome trace-event JSON of the whole flow; --metrics prints the
// sweep-service cache statistics and the pml::obs counter deltas on exit.

#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "pml/arch/sequential_svm.hpp"
#include "pml/cells/library.hpp"
#include "pml/core/flow.hpp"
#include "pml/ml/scaler.hpp"
#include "pml/ml/synthetic_datasets.hpp"
#include "pml/netlist/verilog.hpp"
#include "pml/obs/json.hpp"
#include "pml/obs/metrics.hpp"
#include "pml/obs/trace.hpp"
#include "pml/power/power.hpp"
#include "pml/report/table.hpp"
#include "pml/sim/cycle_sim.hpp"
#include "pml/sim/vcd.hpp"
#include "pml/svc/sweep_service.hpp"

int main(int argc, char** argv) {
  using namespace pml;
  std::string out_dir = ".";
  std::string flow = "area";
  std::string trace_file;
  bool show_metrics = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--flow" && i + 1 < argc) {
      flow = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_file = argv[++i];
    } else if (arg == "--metrics") {
      show_metrics = true;
    } else {
      out_dir = arg;
    }
  }

  std::unique_ptr<obs::ScopedTracer> tracer;
  if (!trace_file.empty()) {
    tracer = std::make_unique<obs::ScopedTracer>();
    obs::set_thread_name("main");
  }
  const obs::MetricsSnapshot metrics_before = obs::snapshot_metrics();

  // Design a small sequential SVM (RedWine profile keeps it quick).
  const ml::Dataset raw = ml::make_uci_like(ml::UciProfile::kRedWine);
  ml::Split split = ml::stratified_split(raw, 0.8, 99);
  ml::MinMaxScaler scaler;
  scaler.fit(split.train);
  const ml::Dataset train = scaler.transform(split.train);
  const ml::Dataset test = scaler.transform(split.test);
  core::SequentialSvmFlowOptions options;
  options.evaluate.power_samples = 12;
  options.evaluate.optimize.flow = flow;
  const core::SequentialSvmDesign design = core::design_sequential_svm(
      train, test, cells::CellLibrary::egfet(), options);
  const netlist::Module& module = design.circuit.module;
  std::cout << "flow recipe: " << design.hw.opt_flow << '\n';

  // Optimizer scoreboard: the Verilog below is the *compacted* netlist.
  const opt::OptReport& opt = design.circuit.opt;
  const cells::CellLibrary lib = cells::CellLibrary::egfet();
  std::cout << "optimizer: " << opt.before.num_cells << " -> "
            << opt.after.num_cells << " cells ("
            << static_cast<int>(opt.cell_reduction() * 100.0 + 0.5)
            << "% removed), " << opt.before.num_dffs << " -> "
            << opt.after.num_dffs << " DFFs, " << opt.before.num_nets
            << " -> " << opt.after.num_nets << " nets\n"
            << "           area " << power::area_cm2(opt.before, lib)
            << " -> " << power::area_cm2(opt.after, lib)
            << " cm2, static power "
            << power::static_power_mw(opt.before, lib) << " -> "
            << power::static_power_mw(opt.after, lib) << " mW\n";
  for (const auto& d : opt.totals_by_pass()) {
    std::cout << "           " << d.pass << ": -" << d.cells_removed
              << " cells (-" << d.dffs_removed << " DFFs), -"
              << d.nets_removed << " nets, " << d.cells_retyped
              << " retyped, +" << d.cells_added << " added\n";
  }

  // Where the optimizer's time went: per-pass wall time, accept/reject
  // tallies, and cost-model probes (populated by opt::optimize's recipe
  // loop).
  if (!design.hw.opt_pass_times.empty()) {
    std::cout << "\noptimizer cost profile ("
              << report::fmt(design.hw.opt_seconds * 1e3, 1) << " ms, "
              << design.hw.opt_cost_probes << " cost probes):\n";
    report::Table pass_table({"Pass", "Applications", "Accepted", "Rejected",
                              "Time (ms)", "Cost probes"});
    for (const auto& pt : design.hw.opt_pass_times) {
      pass_table.add_row({pt.pass, std::to_string(pt.applications),
                          std::to_string(pt.accepted),
                          std::to_string(pt.rejected),
                          report::fmt(pt.seconds * 1e3, 2),
                          std::to_string(pt.cost_probes)});
    }
    pass_table.print(std::cout);
  }

  // Per-recipe area/energy trade-off on this design's raw netlist: what
  // each flow would have produced.  The sweep runs through the cached
  // sweep service — a re-run of this example's sweep (or any repeated
  // recipe) is answered from its content-hashed result cache.
  svc::SweepService service(lib);
  {
    auto raw_circuit = arch::build_sequential_svm(
        design.quantized, opt::OptOptions{.enabled = false});
    const auto raw_module = std::make_shared<const netlist::Module>(
        std::move(raw_circuit.module));
    const auto wl = std::make_shared<const core::CircuitWorkload>(
        core::make_svm_workload(design.quantized, test));
    core::EvaluateOptions eopts;
    eopts.power_samples = 24;
    const auto rows = service.sweep_flows(
        raw_module, raw_circuit.cycles_per_inference, wl, eopts);
    report::Table table({"Flow", "Cells", "Area (cm2)", "Energy (mJ/inf)",
                         "Glitch share (%)"});
    for (const auto& row : rows) {
      table.add_row(
          {row.flow, std::to_string(row.hw.num_cells),
           report::fmt(row.hw.area_cm2, 2), report::fmt(row.hw.energy_mj, 3),
           report::fmt_pct(row.hw.glitch_fraction())});
    }
    std::cout << "\nflow trade-offs (area vs glitch energy):\n";
    table.print(std::cout);
  }

  // 1. Structural Verilog.
  const std::string v_path = out_dir + "/seq_svm.v";
  {
    std::ofstream os(v_path);
    if (!os) {
      std::cerr << "cannot write " << v_path << '\n';
      return 1;
    }
    netlist::write_verilog(module, os);
  }
  std::cout << "wrote " << v_path << " (" << module.cells().size()
            << " cells, " << module.stats().num_dffs << " DFFs)\n";

  // 2. VCD of one classification.
  const std::string vcd_path = out_dir + "/classify.vcd";
  {
    std::ofstream os(vcd_path);
    if (!os) {
      std::cerr << "cannot write " << vcd_path << '\n';
      return 1;
    }
    sim::CycleSimulator sim(module);
    sim::VcdWriter vcd(sim, os);
    const auto xq =
        quant::quantize_features(test.X[0], design.quantized.input_format);
    for (std::size_t j = 0; j < xq.size(); ++j) {
      sim.set_port(std::string("x").append(std::to_string(j)),
                   static_cast<std::uint64_t>(xq[j]));
    }
    for (int c = 0; c < design.circuit.cycles_per_inference; ++c) {
      sim.propagate();
      vcd.sample(static_cast<std::uint64_t>(c));
      sim.step();
    }
    std::cout << "wrote " << vcd_path << " ("
              << design.circuit.cycles_per_inference
              << " cycles; predicted class "
              << sim.port_unsigned("class") << ")\n";
  }

  if (show_metrics) {
    const svc::SweepStats stats = service.stats();
    std::cout << "\nsweep-service cache:\n"
              << "  submitted          " << stats.submitted << "\n"
              << "  evaluated          " << stats.evaluated << "\n"
              << "  cache hits         " << stats.cache_hits << "\n"
              << "  in-flight deduped  " << stats.inflight_deduped << "\n"
              << "  cache entries      " << stats.cache_entries << "\n";
    const obs::MetricsSnapshot delta =
        obs::diff_metrics(metrics_before, obs::snapshot_metrics());
    std::cout << "\nmetrics:\n";
    for (const auto& [metric, value] : delta.counters) {
      std::cout << "  " << metric << " = " << value << "\n";
    }
  }
  if (tracer != nullptr) {
    std::ofstream os(trace_file);
    if (!os) {
      std::cerr << "cannot write " << trace_file << '\n';
      return 1;
    }
    tracer->tracer().write(os);
    std::cout << "wrote " << trace_file << "\n";
    tracer.reset();
  }
  return 0;
}
