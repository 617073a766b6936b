#include "pml/opt/pass_manager.hpp"

#include <stdexcept>

namespace pml::opt {

const std::vector<FlowRecipe>& standard_flows() {
  static const std::vector<FlowRecipe> flows = [] {
    const Pass constants{"constant-propagation", &propagate_constants};
    const Pass buffers{"buffer-chain-collapse", &collapse_buffer_chains};
    const Pass hash{"structural-hash", &hash_structural};
    const Pass rebalance{"rebalance-trees", &rebalance_trees};
    const Pass sweep{"dead-sweep", &sweep_dead};
    return std::vector<FlowRecipe>{
        // The original cleanup pipeline: minimal cell count.
        FlowRecipe{"area", {constants, buffers, hash, sweep},
                   /*cost_driven=*/false},
        // CSE + DCE only: keeps the delay-balancing redundancy of the
        // generated storage trees, trading a little area for markedly
        // fewer glitch transitions (the measured ~25% switching-energy
        // cut that motivated flow selection).
        FlowRecipe{"energy", {hash, sweep}, /*cost_driven=*/false},
        // Area passes plus tree re-balancing, every application gated by
        // the cost model.
        FlowRecipe{"balanced", {constants, buffers, hash, rebalance, sweep},
                   /*cost_driven=*/true},
        FlowRecipe{"none", {}, /*cost_driven=*/false},
    };
  }();
  return flows;
}

const FlowRecipe& flow_recipe(const std::string& name) {
  for (const FlowRecipe& flow : standard_flows()) {
    if (flow.name == name) return flow;
  }
  std::string known;
  for (const FlowRecipe& flow : standard_flows()) {
    known += known.empty() ? flow.name : ", " + flow.name;
  }
  throw std::invalid_argument("pml::opt: unknown flow recipe '" + name +
                              "' (standard: " + known + ", or \"best\")");
}

}  // namespace pml::opt
