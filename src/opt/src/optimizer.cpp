#include "pml/opt/optimizer.hpp"

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
  if (options.flow == kBestFlow) {
    return PassManager::run_best(
        m, standard_flows(),
        cost_model != nullptr ? *cost_model : fallback, options);
  }
  const FlowRecipe& recipe = flow_recipe(options.flow);
  const CostModel* model = cost_model;
  if (model == nullptr && recipe.cost_driven) model = &fallback;
  return PassManager(recipe, options, model).run(m);
}

}  // namespace pml::opt
