// Design-space explorer: pick the best printed classifier under a power
// budget.
//
// Sweeps architecture (sequential vs parallel) x multiclass reduction
// (OvR vs OvO) x precision for one dataset, evaluates every generated
// circuit through the cached svc::SweepService, and prints the
// accuracy/energy Pareto frontier plus the best battery-feasible design —
// the kind of exploration the paper's co-design flow automates.
// --metrics prints the sweep-service cache statistics on exit.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>
#include <vector>

#include "pml/arch/battery.hpp"
#include "pml/arch/parallel_svm.hpp"
#include "pml/arch/sequential_svm.hpp"
#include "pml/cells/library.hpp"
#include "pml/core/evaluate.hpp"
#include "pml/core/flow.hpp"
#include "pml/core/verify.hpp"
#include "pml/ml/metrics.hpp"
#include "pml/ml/scaler.hpp"
#include "pml/ml/synthetic_datasets.hpp"
#include "pml/report/table.hpp"
#include "pml/svc/sweep_service.hpp"

using namespace pml;

namespace {

struct Candidate {
  std::string arch;
  std::string reduction;
  int input_bits;
  int weight_bits;
  double accuracy;
  core::HardwareReport hw;
};

}  // namespace

int main(int argc, char** argv) {
  // --flow <name> selects the optimization recipe every candidate is
  // evaluated under ("area", "energy", "balanced", "none", "best");
  // --metrics prints the sweep-service cache statistics on exit.
  std::string flow = "area";
  bool show_metrics = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--flow" && i + 1 < argc) {
      flow = argv[++i];
    } else if (arg == "--metrics") {
      show_metrics = true;
    }
  }

  const auto profile = ml::UciProfile::kCardio;
  const ml::Dataset raw = ml::make_uci_like(profile);
  ml::Split split = ml::stratified_split(raw, 0.8, 7777);
  ml::MinMaxScaler scaler;
  scaler.fit(split.train);
  const ml::Dataset train = scaler.transform(split.train);
  const ml::Dataset test = scaler.transform(split.test);
  const cells::CellLibrary lib = cells::CellLibrary::egfet();
  const arch::PrintedBattery& battery = arch::molex_30mw();

  std::cout << "design-space exploration on "
            << ml::profile_info(profile).name << " ("
            << raw.num_features << " features, " << raw.num_classes
            << " classes), budget: " << battery.power_budget_mw << " mW\n\n";

  ml::MulticlassTrainOptions topts;
  topts.base.seed = 7;
  const auto ovr = ml::train_one_vs_rest(train, topts);
  const auto ovo = ml::train_one_vs_one(train, topts);

  std::vector<Candidate> candidates;
  core::EvaluateOptions eopts;
  eopts.power_samples = 24;
  // Every circuit is generated raw: the flow is applied inside the
  // service's evaluation, against the candidate's own workload.
  eopts.optimize.flow = flow;
  std::cout << "optimization flow: " << flow << "\n";
  // Every candidate's bit-exactness gate runs on the 64-way bit-parallel
  // batch simulator, sharded across all hardware threads (0 = auto).
  eopts.verify.num_threads = 0;
  // One cached sweep service runs every evaluation of this exploration:
  // repeated design points (and the flow trade-off table below, which
  // revisits the selected design) are answered from its content-hashed
  // result cache.
  svc::SweepService service(lib);
  const auto sweep_start = std::chrono::steady_clock::now();
  for (const auto& [reduction, model] :
       {std::pair{std::string("OvR"), &ovr}, {std::string("OvO"), &ovo}}) {
    for (const int bx : {3, 4, 5}) {
      for (const int bw : {4, 5, 6}) {
        const auto q = quant::quantize_svm(*model, bx, bw);
        const double acc = ml::accuracy(q.predict_all(test.X), test.y);
        const auto wl = std::make_shared<const core::CircuitWorkload>(
            core::make_svm_workload(q, test));
        // Parallel works for both reductions; sequential is OvR-only
        // (the paper's architecture).
        arch::ParallelSvmOptions popts;
        popts.opt.enabled = false;
        auto par = arch::build_parallel_svm(q, popts);
        svc::SweepRequest preq;
        preq.module =
            std::make_shared<const netlist::Module>(std::move(par.module));
        preq.cycles_per_inference = par.cycles_per_inference;
        preq.workload = wl;
        preq.options = eopts;
        candidates.push_back(
            {"parallel", reduction, bx, bw, acc, service.evaluate(preq)});
        if (reduction == "OvR") {
          auto seq = arch::build_sequential_svm(q, popts.opt);
          svc::SweepRequest sreq;
          sreq.module =
              std::make_shared<const netlist::Module>(std::move(seq.module));
          sreq.cycles_per_inference = seq.cycles_per_inference;
          sreq.workload = wl;
          sreq.options = eopts;
          candidates.push_back(
              {"sequential", reduction, bx, bw, acc, service.evaluate(sreq)});
        }
      }
    }
  }

  const double sweep_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    sweep_start)
          .count();
  std::size_t verified_samples = 0;
  for (const auto& c : candidates) verified_samples += c.hw.verified_samples;
  std::cout << candidates.size() << " candidates evaluated ("
            << verified_samples
            << " gate-level sample verifications via the batch simulator) in "
            << report::fmt(sweep_s, 1) << " s\n\n";

  // Pareto frontier on (accuracy up, energy down).
  auto dominated = [&](const Candidate& c) {
    return std::any_of(candidates.begin(), candidates.end(),
                       [&](const Candidate& o) {
                         return (o.accuracy > c.accuracy &&
                                 o.hw.energy_mj <= c.hw.energy_mj) ||
                                (o.accuracy >= c.accuracy &&
                                 o.hw.energy_mj < c.hw.energy_mj);
                       });
  };
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.hw.energy_mj < b.hw.energy_mj;
            });

  report::Table table({"Arch", "Reduction", "x bits", "w bits", "Acc (%)",
                       "Area (cm2)", "Power (mW)", "Energy (mJ)", "Pareto",
                       "<=30mW"});
  for (const auto& c : candidates) {
    table.add_row({c.arch, c.reduction, std::to_string(c.input_bits),
                   std::to_string(c.weight_bits), report::fmt_pct(c.accuracy),
                   report::fmt(c.hw.area_cm2, 1),
                   report::fmt(c.hw.power_mw, 1),
                   report::fmt(c.hw.energy_mj, 3),
                   dominated(c) ? "" : "*",
                   battery.can_power(c.hw.power_mw) ? "yes" : "NO"});
  }
  table.print(std::cout);

  // The pick: best accuracy among battery-feasible designs, ties broken by
  // energy.
  const Candidate* best = nullptr;
  for (const auto& c : candidates) {
    if (!battery.can_power(c.hw.power_mw)) continue;
    if (best == nullptr || c.accuracy > best->accuracy ||
        (c.accuracy == best->accuracy &&
         c.hw.energy_mj < best->hw.energy_mj)) {
      best = &c;
    }
  }
  if (best != nullptr) {
    std::cout << "\nselected design: " << best->arch << " " << best->reduction
              << " @ " << best->input_bits << "x" << best->weight_bits
              << " bits -> " << report::fmt_pct(best->accuracy) << "% at "
              << report::fmt(best->hw.energy_mj, 3) << " mJ/classification ("
              << report::fmt(best->hw.power_mw, 1) << " mW)\n";

    // Per-recipe area/energy trade-off for the selected design: how each
    // optimization flow would move it.
    const auto& model = best->reduction == "OvR" ? ovr : ovo;
    const auto q =
        quant::quantize_svm(model, best->input_bits, best->weight_bits);
    const auto wl = std::make_shared<const core::CircuitWorkload>(
        core::make_svm_workload(q, test));
    std::shared_ptr<const netlist::Module> raw_module;
    int cycles = 1;
    if (best->arch == "sequential") {
      auto c = arch::build_sequential_svm(q, opt::OptOptions{.enabled = false});
      raw_module =
          std::make_shared<const netlist::Module>(std::move(c.module));
      cycles = c.cycles_per_inference;
    } else {
      arch::ParallelSvmOptions popts;
      popts.opt.enabled = false;
      auto c = arch::build_parallel_svm(q, popts);
      raw_module =
          std::make_shared<const netlist::Module>(std::move(c.module));
      cycles = c.cycles_per_inference;
    }
    const auto rows = service.sweep_flows(raw_module, cycles, wl, eopts);
    report::Table flows_table({"Flow", "Cells", "Area (cm2)", "Power (mW)",
                               "Energy (mJ)", "Glitch share (%)"});
    for (const auto& row : rows) {
      flows_table.add_row(
          {row.flow, std::to_string(row.hw.num_cells),
           report::fmt(row.hw.area_cm2, 1), report::fmt(row.hw.power_mw, 1),
           report::fmt(row.hw.energy_mj, 3),
           report::fmt_pct(row.hw.glitch_fraction())});
    }
    std::cout << "\nflow trade-offs for the selected design:\n";
    flows_table.print(std::cout);
  }

  if (show_metrics) {
    const svc::SweepStats stats = service.stats();
    std::cout << "\nsweep-service cache:\n"
              << "  submitted          " << stats.submitted << "\n"
              << "  evaluated          " << stats.evaluated << "\n"
              << "  cache hits         " << stats.cache_hits << "\n"
              << "  in-flight deduped  " << stats.inflight_deduped << "\n"
              << "  cache entries      " << stats.cache_entries << "\n"
              << "  hit rate           " << report::fmt_pct(stats.hit_rate())
              << "%\n";
  }
  return 0;
}
