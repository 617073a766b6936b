// Flow-recipe sweep on the Table I Cardio sequential SVM: what each
// pml::opt flow recipe trades between cell count and (glitch) switching
// energy, measured with the delay-accurate batch event simulator.
//
// The rows come from svc::SweepService::sweep_flows.  Every recipe's
// module is verified bit-exact over the full test workload (the sweep
// throws otherwise), then replayed for power; the JSON
// record carries per-recipe cells/area/switching-energy/glitch-split
// numbers plus the comparative metrics the CI gate watches
// (bench/baselines/opt_flows_baseline.json):
//
//   compare.energy_vs_none_switching_reduction — the "energy" recipe must
//       cut switching energy per inference vs the unoptimized netlist;
//   compare.energy_vs_area_switching_reduction — and vs the PR 4 "area"
//       recipe (whose melted storage trees glitch more);
//   compare.energy_vs_area_glitch_energy_reduction — the glitch-energy
//       slice specifically.
//
// All gated metrics are ratios of deterministic transition counts, so
// they are machine-independent (unlike the timing benches).
//
// Usage: bench_opt_flows [--quick] [--trace out.json] [--metrics]

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "pml/arch/sequential_svm.hpp"
#include "pml/core/flow.hpp"
#include "pml/ml/multiclass.hpp"
#include "pml/opt/optimizer.hpp"
#include "pml/quant/svm_quant.hpp"
#include "pml/report/table.hpp"
#include "pml/svc/sweep_service.hpp"

using namespace pml;

namespace {

struct FlowMetrics {
  std::string flow;
  std::size_t cells = 0;
  double area_cm2 = 0.0;
  double switching_uj = 0.0;  ///< dynamic energy per inference (uJ)
  double glitch_uj = 0.0;     ///< glitch slice of switching_uj
  std::uint64_t functional_transitions = 0;
  std::uint64_t glitch_transitions = 0;
  bool verified = false;
};

FlowMetrics metrics_of(const core::FlowSweepRow& row) {
  FlowMetrics m;
  m.flow = row.flow;
  m.cells = row.hw.num_cells;
  m.area_cm2 = row.hw.area_cm2;
  // dynamic_mw x latency_ms = uJ per inference; the period cancels, so
  // this is (transitions x switch energy) / inferences — deterministic.
  m.switching_uj = row.hw.dynamic_mw * row.hw.latency_ms;
  m.glitch_uj = row.hw.dynamic_glitch_mw * row.hw.latency_ms;
  m.functional_transitions = row.hw.functional_transitions;
  m.glitch_transitions = row.hw.glitch_transitions;
  m.verified = row.hw.verified;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::ObsArgs args = benchutil::parse_args(argc, argv);
  const bool quick = args.quick;
  benchutil::ObsSession session("opt_flows", args, /*seed=*/7,
                                quick ? "quick" : "full");

  // The Table I circuit of bench_opt: Cardio OvR sequential SVM.
  const auto data = benchutil::prepare(ml::UciProfile::kCardio);
  ml::MulticlassTrainOptions topts;
  topts.base.seed = 7;
  const auto model = ml::train_one_vs_rest(data.train, topts);
  const auto q = quant::quantize_svm(model, /*input_bits=*/4,
                                     /*weight_bits=*/5);
  const auto raw =
      arch::build_sequential_svm(q, opt::OptOptions{.enabled = false});
  const core::CircuitWorkload wl = core::make_svm_workload(q, data.test);

  core::EvaluateOptions eopts;
  eopts.power_samples = quick ? 48 : 96;

  const cells::CellLibrary lib = cells::CellLibrary::egfet();
  const std::vector<std::string> flows = {"none", "area", "energy",
                                          "balanced", "best"};
  svc::SweepService service(lib);
  const auto rows = service.sweep_flows(
      std::make_shared<const netlist::Module>(raw.module),
      raw.cycles_per_inference,
      std::make_shared<const core::CircuitWorkload>(wl), eopts, flows);

  std::vector<FlowMetrics> mx;
  for (const auto& row : rows) mx.push_back(metrics_of(row));

  report::Table table({"Flow", "Cells", "Area (cm2)", "Switch (uJ/inf)",
                       "Glitch (uJ/inf)", "Glitch (%)", "Verified"});
  for (const auto& m : mx) {
    table.add_row({m.flow, std::to_string(m.cells),
                   report::fmt(m.area_cm2, 2), report::fmt(m.switching_uj, 2),
                   report::fmt(m.glitch_uj, 2),
                   report::fmt_pct(m.switching_uj > 0.0
                                       ? m.glitch_uj / m.switching_uj
                                       : 0.0),
                   m.verified ? "yes" : "NO"});
  }
  std::cerr << "bench_opt_flows: " << data.name << " sequential SVM, "
            << raw.module.cells().size() << " raw cells, "
            << wl.feature_codes.size() << " verification samples, "
            << eopts.power_samples << " power samples\n";
  table.print(std::cerr);

  const FlowMetrics* none = nullptr;
  const FlowMetrics* area = nullptr;
  const FlowMetrics* energy = nullptr;
  for (const auto& m : mx) {
    if (m.flow == "none") none = &m;
    if (m.flow == "area") area = &m;
    if (m.flow == "energy") energy = &m;
  }
  const double e_vs_none =
      1.0 - energy->switching_uj / none->switching_uj;
  const double e_vs_area =
      1.0 - energy->switching_uj / area->switching_uj;
  const double g_vs_area = 1.0 - energy->glitch_uj / area->glitch_uj;
  std::cerr << "  energy recipe: switching -"
            << report::fmt_pct(e_vs_none) << "% vs none, -"
            << report::fmt_pct(e_vs_area) << "% vs area; glitch energy -"
            << report::fmt_pct(g_vs_area) << "% vs area\n";

  bool ok = true;
  for (const auto& m : mx) ok = ok && m.verified;
  // The acceptance bar: the energy recipe must beat BOTH the raw netlist
  // and the area recipe on switching energy per inference.
  ok = ok && energy->switching_uj < none->switching_uj &&
       energy->switching_uj < area->switching_uj;
  if (!ok) {
    std::cerr << "bench_opt_flows: acceptance bar failed — no JSON\n";
    return 1;
  }

  // --- machine-readable record ----------------------------------------------
  obs::Json rec = session.record();
  rec.set("dataset", data.name);
  rec.set("circuit", obs::Json::object()
                         .set("arch", "sequential_svm")
                         .set("classes", q.num_classes)
                         .set("cycles_per_inference", raw.cycles_per_inference)
                         .set("raw_cells", raw.module.cells().size()));
  obs::Json flows_rec = obs::Json::object();
  for (const auto& m : mx) {
    flows_rec.set(m.flow,
                  obs::Json::object()
                      .set("cells", m.cells)
                      .set("area_cm2", m.area_cm2)
                      .set("switching_uj_per_inference", m.switching_uj)
                      .set("glitch_uj_per_inference", m.glitch_uj)
                      .set("functional_transitions", m.functional_transitions)
                      .set("glitch_transitions", m.glitch_transitions)
                      .set("verified", m.verified));
  }
  rec.set("flows", std::move(flows_rec));
  rec.set("compare",
          obs::Json::object()
              .set("energy_vs_none_switching_reduction", e_vs_none)
              .set("energy_vs_area_switching_reduction", e_vs_area)
              .set("energy_vs_area_glitch_energy_reduction", g_vs_area));
  rec.write(std::cout);
  std::cout << "\n";
  session.finish();
  return 0;
}
