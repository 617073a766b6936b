#pragma once
// Flow recipes: the named pass compositions opt::optimize() runs.
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
// Flow "best" (optimize with flow="best") runs every standard recipe on a
// copy and keeps the module the cost model scores cheapest — the
// measure-then-commit loop of hardware-aware co-optimization.
//
// The cost model (cost_model.hpp) defaults to cell count; callers that
// hold a workload attach a SwitchingEnergyCost, which replays a probe
// through sim::BatchEventSimulator and prices candidates by measured
// transitions x switch capacitance — glitches included.

#include <string>
#include <vector>

#include "pml/opt/optimizer.hpp"

namespace pml::opt {

/// An ordered pass composition.
struct FlowRecipe {
  std::string name;
  std::vector<Pass> passes;
  /// When true optimize() probes the cost model after every pass
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

}  // namespace pml::opt
