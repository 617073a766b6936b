#include "pml/opt/optimizer.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "pml/obs/metrics.hpp"
#include "pml/obs/trace.hpp"
#include "pml/opt/cost_model.hpp"
#include "pml/opt/pass_manager.hpp"

namespace pml::opt {

std::vector<PassDelta> OptReport::totals_by_pass() const {
  std::vector<PassDelta> totals;
  for (const PassDelta& d : deltas) {
    PassDelta* slot = nullptr;
    for (PassDelta& t : totals) {
      if (t.pass == d.pass) slot = &t;
    }
    if (slot == nullptr) {
      totals.push_back(PassDelta{.pass = d.pass});
      slot = &totals.back();
    }
    slot->cells_removed += d.cells_removed;
    slot->dffs_removed += d.dffs_removed;
    slot->nets_removed += d.nets_removed;
    slot->cells_retyped += d.cells_retyped;
    slot->cells_added += d.cells_added;
  }
  return totals;
}

namespace {

/// Fixpoint guard: maximum sweeps over the whole recipe.  Real circuits
/// converge in 2-4 sweeps; the cap only bounds pathology.
constexpr int kMaxIterations = 16;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void debug_validate(const netlist::Module& m, const std::string& pass) {
#ifndef NDEBUG
  if (const auto err = m.validate()) {
    std::fprintf(stderr,
                 "pml::opt: netlist invariant broken after pass '%s': %s\n",
                 pass.c_str(), err->c_str());
    assert(false && "optimizer pass broke netlist invariants");
  }
#else
  (void)m;
  (void)pass;
#endif
}

/// Run `recipe` on `m` to a fixpoint (at most kMaxIterations sweeps).
/// With a cost-driven recipe and a model, each pass runs on a scratch
/// copy that is committed (by swap) only when the measured cost does not
/// worsen; without a model a cost-driven recipe runs ungated.  The final
/// module is validated (throws std::runtime_error on a pass bug).
OptReport run_recipe(netlist::Module& m, const FlowRecipe& recipe,
                     const CostModel* model) {
  PML_OBS_SPAN("opt.run");
  const auto run_start = std::chrono::steady_clock::now();
  OptReport report;
  report.recipe = recipe.name;
  report.before = m.stats();
  // Every pass gets a timing slot up front, in recipe order, so the
  // profile reads as the recipe even for passes that never fire.
  report.pass_times.reserve(recipe.passes.size());
  for (const Pass& pass : recipe.passes) {
    report.pass_times.push_back(PassTiming{.pass = pass.name});
  }
  const auto probe = [&](const netlist::Module& candidate) {
    ++report.cost_probes;
    PML_OBS_COUNT("opt.cost_probes", 1);
    return model->cost(candidate);
  };

  const bool cost_gate = recipe.cost_driven && model != nullptr;
  double current_cost = -1.0;
  if (model != nullptr) {
    PML_OBS_SPAN("opt.cost_probe");
    current_cost = probe(m);
  }
  report.cost_before = current_cost;

  // A pass rejected by the cost gate would produce the identical (and
  // identically priced) candidate until some *other* pass changes the
  // module, so it is vetoed — skipping the module copy and probe replay
  // — until an acceptance clears the veto.  Commit is a swap, so the
  // rejected buffer's capacity feeds the next refill of `scratch`.
  std::vector<bool> vetoed(recipe.passes.size(), false);
  netlist::Module scratch;
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    report.iterations = iter + 1;
    bool changed = false;
    for (std::size_t pi = 0; pi < recipe.passes.size(); ++pi) {
      if (vetoed[pi]) continue;
      const Pass& pass = recipe.passes[pi];
      PassTiming& timing = report.pass_times[pi];
      PML_OBS_SPAN("opt.pass." + pass.name);
      const auto pass_start = std::chrono::steady_clock::now();
      ++timing.applications;
      PML_OBS_COUNT("opt.pass.applications", 1);
      if (cost_gate) scratch = m;
      netlist::Module& target = cost_gate ? scratch : m;
      PassDelta delta = pass.run(target);
      debug_validate(target, pass.name);
      bool accept = delta.changed();
      if (accept && cost_gate) {
        const double candidate_cost = probe(scratch);
        ++timing.cost_probes;
        accept = candidate_cost <= current_cost;
        if (accept) {
          std::swap(m, scratch);
          current_cost = candidate_cost;
          std::fill(vetoed.begin(), vetoed.end(), false);
        } else {
          vetoed[pi] = true;
          report.rejected.push_back(pass.name);
          ++timing.rejected;
          PML_OBS_COUNT("opt.pass.rejected", 1);
        }
      }
      if (accept) {
        changed = true;
        report.deltas.push_back(std::move(delta));
        ++timing.accepted;
        PML_OBS_COUNT("opt.pass.accepted", 1);
      }
      timing.seconds += seconds_since(pass_start);
    }
    if (!changed) break;
  }

  if (const auto err = m.validate()) {
    throw std::runtime_error("pml::opt: optimized module is invalid: " +
                             *err);
  }
  report.after = m.stats();
  if (cost_gate) {
    report.cost_after = current_cost;
  } else if (model != nullptr) {
    PML_OBS_SPAN("opt.cost_probe");
    report.cost_after = probe(m);
  }
  report.opt_seconds = seconds_since(run_start);
  return report;
}

}  // namespace

OptReport optimize(netlist::Module& m, const OptOptions& options,
                   const CostModel* cost_model) {
  if (!options.enabled) {
    // Report the untouched shape under the requested recipe name without
    // resolving it (disabled runs must stay no-ops even for "best").
    OptReport report;
    report.recipe = options.flow;
    report.before = m.stats();
    report.after = report.before;
    return report;
  }
  const CellCountCost fallback;
  if (options.flow != kBestFlow) {
    const FlowRecipe& recipe = flow_recipe(options.flow);
    const bool use_fallback = cost_model == nullptr && recipe.cost_driven;
    return run_recipe(m, recipe, use_fallback ? &fallback : cost_model);
  }

  // "best": every standard recipe on a copy; the cheapest result wins
  // (ties go to the earliest recipe), and the winner's report carries the
  // whole bill — seconds and probes of every recipe tried.
  PML_OBS_SPAN("opt.run_best");
  const CostModel& model = cost_model != nullptr ? *cost_model : fallback;
  const std::vector<FlowRecipe>& flows = standard_flows();
  netlist::Module best_module;
  OptReport best;
  double total_seconds = 0.0;
  std::uint64_t total_probes = 0;
  for (const FlowRecipe& flow : flows) {
    netlist::Module candidate = m;
    OptReport report = run_recipe(candidate, flow, &model);
    total_seconds += report.opt_seconds;
    total_probes += report.cost_probes;
    if (&flow == &flows.front() || report.cost_after < best.cost_after) {
      best_module = std::move(candidate);
      best = std::move(report);
    }
  }
  m = std::move(best_module);
  best.opt_seconds = total_seconds;
  best.cost_probes = total_probes;
  return best;
}

}  // namespace pml::opt
