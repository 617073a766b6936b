#pragma once
// Cost-driven pass management: the pass registry, named flow recipes, and
// the PassManager that composes them.
//
// PR 4's single hardcoded pipeline minimized *cell count* — and the
// event-driven power replay showed the area-minimal netlist can *glitch
// more* (melting the MUX storage trees shortens/skews paths), eroding the
// energy win the sequential SVM exists for.  Area and switching activity
// pull in different directions, so pass composition is a flow decision:
//
//   "area"     : the PR 4 pipeline — constant propagation, buffer-chain
//                collapse, structural hash, dead sweep.  Minimal cells.
//   "energy"   : CSE + DCE only (structural hash, dead sweep).  Keeps the
//                delay-balancing redundancy of the generated storage
//                trees, cutting glitch transitions at a small area cost.
//   "balanced" : the area passes plus rebalance-trees, each application
//                accepted only when the cost model's *measured* cost does
//                not worsen (cost-driven).
//   "none"     : no passes (the raw module, but through the same API).
//
// Flow "best" (PassManager::run_best / optimize with flow="best") runs
// every standard recipe on a copy and keeps the module the cost model
// scores cheapest — the measure-then-commit loop of hardware-aware
// co-optimization.
//
// The cost model (cost_model.hpp) defaults to cell count; callers that
// hold a workload attach a SwitchingEnergyCost, which replays a probe
// through sim::BatchEventSimulator and prices candidates by measured
// transitions x switch capacitance — glitches included.

#include <string>
#include <vector>

#include "pml/netlist/module.hpp"
#include "pml/opt/optimizer.hpp"

namespace pml::opt {

class CostModel;  // cost_model.hpp

// --- pass registry -----------------------------------------------------------

/// Every registered pass, in registration order.
[[nodiscard]] const std::vector<Pass>& pass_registry();

/// Look up a pass by name; throws std::invalid_argument on unknown names
/// (the error lists the registered names).
[[nodiscard]] const Pass& find_pass(const std::string& name);

// --- flow recipes ------------------------------------------------------------

/// An ordered pass composition, described by pass *names* so recipes can
/// be stored, printed, and round-tripped through flow options.
struct FlowRecipe {
  std::string name;
  std::vector<std::string> passes;
  /// When true the PassManager probes the cost model after every pass
  /// application and reverts applications whose measured cost worsens.
  bool cost_driven = false;
};

/// The built-in recipes: "area", "energy", "balanced", "none".
[[nodiscard]] const std::vector<FlowRecipe>& standard_flows();

/// Look up a standard recipe by name; throws std::invalid_argument on
/// unknown names.  "best" is not a recipe (it is a selection policy over
/// recipes) and also throws here.
[[nodiscard]] const FlowRecipe& flow_recipe(const std::string& name);

/// Name of the recipe-selection policy accepted by OptOptions::flow.
inline constexpr const char* kBestFlow = "best";

// --- the manager -------------------------------------------------------------

/// Runs one flow recipe to fixpoint, optionally gatekeeping every pass
/// application with a cost model.  The cost model (when given) is
/// borrowed, not owned, and must outlive the manager.
class PassManager {
 public:
  /// Resolve `recipe.passes` against the registry (throws
  /// std::invalid_argument on an unknown pass name).
  explicit PassManager(FlowRecipe recipe, OptOptions options = {},
                       const CostModel* cost_model = nullptr);

  /// Optimize `m` in place.  With a cost-driven recipe and a cost model,
  /// each pass runs on a pooled scratch copy and is committed (by swap)
  /// only when the measured cost does not worsen; rejected applications
  /// are recorded in OptReport::rejected.  The recipe is iterated to a
  /// fixpoint (at most 16 sweeps; real circuits converge in 2-4), and the
  /// final module is validated (throws std::runtime_error on a pass bug).
  /// Deterministic in the module and the cost model alone.  NOT
  /// thread-safe: concurrent run() calls on one PassManager share the
  /// scratch module — use one manager per thread.
  OptReport run(netlist::Module& m) const;

  /// Run every recipe in `flows` on a copy of `m`, score each result
  /// with `cost_model`, commit the cheapest into `m`, and return its
  /// report (ties resolve to the earliest recipe in `flows`).
  static OptReport run_best(netlist::Module& m,
                            const std::vector<FlowRecipe>& flows,
                            const CostModel& cost_model,
                            const OptOptions& options = {});

  [[nodiscard]] const FlowRecipe& recipe() const { return recipe_; }

 private:
  FlowRecipe recipe_;
  std::vector<Pass> passes_;
  OptOptions options_;
  const CostModel* cost_model_ = nullptr;
  /// Measure-then-commit working copy, pooled across pass applications
  /// and run() calls: copy-assign refills it reusing held capacity, and
  /// acceptance swaps it with the module instead of moving (so both
  /// buffers stay warm).  Mutable because it is scratch, not state.
  mutable netlist::Module scratch_;
};

}  // namespace pml::opt
