// Regenerates Table I of the paper: accuracy / area / power / frequency /
// latency / energy for the three state-of-the-art baselines and our
// sequential SVM, over all five datasets, plus every aggregate claim of
// Section III.  Paper values are printed next to measured ones.
//
// Usage: bench_table1 [--quick] [--smoke] [--trace out.json] [--metrics]
//   --quick: fewer power samples; --smoke: Cardio only (CI trace fixture)

#include <algorithm>
#include <iostream>

#include "bench_util.hpp"
#include "pml/arch/battery.hpp"
#include "pml/core/paper_reference.hpp"
#include "pml/core/table1.hpp"
#include "pml/power/power.hpp"
#include "pml/report/table.hpp"

using namespace pml;

namespace {

std::string cell(double measured, double paper, int precision) {
  if (paper < 0) return report::fmt(measured, precision) + " / -";
  return report::fmt(measured, precision) + " / " +
         report::fmt(paper, precision);
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::ObsArgs args = benchutil::parse_args(argc, argv);
  const bool quick = args.quick;

  core::Table1Options options;
  options.power_samples = quick ? 24 : 48;
  if (args.smoke) options.profiles = {ml::UciProfile::kCardio};
  if (!args.trace_file.empty()) {
    // A useful trace needs at least two worker tracks even on single-core
    // CI runners; the workers are deterministic, so this only affects the
    // fan-out shape, not the numbers.
    options.num_threads = benchutil::hardware_threads();
  }
  benchutil::ObsSession session("table1", args, options.train_seed,
                                quick ? "quick" : "full");

  std::cout << "=== Table I: hardware evaluation of sequential SVMs vs "
               "state of the art ===\n"
            << "(each cell: measured / paper; '-' = not reported in the "
               "paper)\n\n";

  const cells::CellLibrary lib = cells::CellLibrary::egfet();
  const core::Table1Result result = core::run_table1(lib, options);

  report::Table table({"Dataset", "Model", "Acc (%)", "Area (cm2)",
                       "Power (mW)", "Freq (Hz)", "Latency (ms)",
                       "Energy (mJ)", "Verified"});
  std::string last_dataset;
  for (const auto& row : result.rows) {
    if (!last_dataset.empty() && row.dataset != last_dataset) {
      table.add_separator();
    }
    last_dataset = row.dataset;
    const auto paper = core::paper_row(row.dataset, row.model);
    const core::PaperRow p = paper.value_or(core::PaperRow{
        row.dataset, row.model, -1, -1, -1, -1, -1, -1});
    table.add_row({row.dataset, row.model,
                   cell(row.accuracy * 100.0, p.accuracy_pct, 1),
                   cell(row.area_cm2, p.area_cm2, 1),
                   cell(row.power_mw, p.power_mw, 1),
                   cell(row.frequency_hz, p.freq_hz, 0),
                   cell(row.latency_ms, p.latency_ms, 0),
                   cell(row.energy_mj, p.energy_mj, 3),
                   row.verified ? "bit-exact" : "FAILED"});
  }
  table.print(std::cout);

  // Synthesis-style cleanup scoreboard: what the opt pipeline melted away
  // between raw generation and the measured circuits above (area/static
  // power priced from the pre/post cell mixes with the same library).
  std::cout << "\n=== Optimizer impact (raw generation -> measured netlist) "
               "===\n";
  report::Table opt_table({"Dataset", "Model", "Flow", "Cells pre>post",
                           "Cells (%)", "Area pre>post (cm2)",
                           "Static pre>post (mW)", "Glitch share (%)",
                           "Opt (ms)", "Cost probes"});
  std::string last_opt_dataset;
  double pre_cells_total = 0.0, post_cells_total = 0.0;
  for (const auto& row : result.rows) {
    if (!last_opt_dataset.empty() && row.dataset != last_opt_dataset) {
      opt_table.add_separator();
    }
    last_opt_dataset = row.dataset;
    pre_cells_total += static_cast<double>(row.pre_opt_stats.num_cells);
    post_cells_total += static_cast<double>(row.post_opt_stats.num_cells);
    opt_table.add_row(
        {row.dataset, row.model, row.opt_flow,
         std::to_string(row.pre_opt_stats.num_cells) + " > " +
             std::to_string(row.post_opt_stats.num_cells),
         std::string("-").append(
             report::fmt(row.opt_cell_reduction() * 100.0, 1)),
         report::fmt(power::area_cm2(row.pre_opt_stats, lib), 2) + " > " +
             report::fmt(power::area_cm2(row.post_opt_stats, lib), 2),
         report::fmt(power::static_power_mw(row.pre_opt_stats, lib), 2) +
             " > " +
             report::fmt(power::static_power_mw(row.post_opt_stats, lib), 2),
         report::fmt_pct(row.glitch_fraction()),
         report::fmt(row.opt_seconds * 1e3, 1),
         std::to_string(row.opt_cost_probes)});
  }
  opt_table.print(std::cout);
  if (pre_cells_total > 0.0) {
    std::cout << "Overall: " << static_cast<long>(pre_cells_total) << " -> "
              << static_cast<long>(post_cells_total) << " cells (-"
              << report::fmt((1.0 - post_cells_total / pre_cells_total) * 100.0,
                             1)
              << "%)\n";
  }

  const auto& s = result.summary;
  std::cout << "\n=== Section III aggregate claims (measured vs paper) ===\n";
  report::Table claims({"Claim", "Measured", "Paper"});
  claims.add_row({"Energy gain vs SVM [2]",
                  report::fmt_ratio(s.energy_gain_vs_svm2), "10.6x"});
  claims.add_row({"Energy gain vs SVM [3]",
                  report::fmt_ratio(s.energy_gain_vs_svm3), "5.4x"});
  claims.add_row({"Energy gain vs MLP [4]",
                  report::fmt_ratio(s.energy_gain_vs_mlp4), "3.46x"});
  claims.add_row({"Average energy gain",
                  report::fmt_ratio(s.energy_gain_overall), "6.5x"});
  claims.add_row({"Ours: average energy (mJ)",
                  report::fmt(s.ours_avg_energy_mj, 2), "2.46"});
  claims.add_row({"Ours: peak power (mW)",
                  report::fmt(s.ours_peak_power_mw, 1), "22.9"});
  claims.add_row({"Ours: average power (mW)",
                  report::fmt(s.ours_avg_power_mw, 2), "13.58"});
  claims.add_row({"Accuracy delta vs [2] (pp)",
                  report::fmt(s.acc_delta_vs_svm2, 2), "+2.02"});
  claims.add_row({"Accuracy delta vs [3] (pp)",
                  report::fmt(s.acc_delta_vs_svm3, 2), "+3.13"});
  claims.add_row({"Accuracy delta vs [4] (pp)",
                  report::fmt(s.acc_delta_vs_mlp4, 2), "+4.38"});
  claims.add_row(
      {"Ours powered by Molex 30 mW",
       std::to_string(s.ours_feasible) + "/" + std::to_string(s.ours_total),
       "5/5"});
  claims.add_row(
      {"SoTA powered by Molex 30 mW",
       std::to_string(s.sota_feasible) + "/" + std::to_string(s.sota_total),
       "4/13"});
  claims.print(std::cout);

  std::cout << "\nAll circuits verified bit-exact against their integer "
               "models over the full test sets.\n";
  session.finish();
  return session.ok() ? 0 : 4;
}
