#include "pml/opt/pass_manager.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "pml/obs/metrics.hpp"
#include "pml/obs/trace.hpp"
#include "pml/opt/cost_model.hpp"

namespace pml::opt {

// --- registry ----------------------------------------------------------------

const std::vector<Pass>& pass_registry() {
  static const std::vector<Pass> registry = {
      Pass{"constant-propagation", &propagate_constants},
      Pass{"buffer-chain-collapse", &collapse_buffer_chains},
      Pass{"structural-hash", &hash_structural},
      Pass{"rebalance-trees", &rebalance_trees},
      Pass{"dead-sweep", &sweep_dead},
  };
  return registry;
}

const Pass& find_pass(const std::string& name) {
  for (const Pass& pass : pass_registry()) {
    if (pass.name == name) return pass;
  }
  std::string known;
  for (const Pass& pass : pass_registry()) {
    known += known.empty() ? pass.name : ", " + pass.name;
  }
  throw std::invalid_argument("pml::opt: unknown pass '" + name +
                              "' (registered: " + known + ")");
}

// --- recipes -----------------------------------------------------------------

const std::vector<FlowRecipe>& standard_flows() {
  static const std::vector<FlowRecipe> flows = {
      // PR 4's pipeline: minimal cell count.
      FlowRecipe{"area",
                 {"constant-propagation", "buffer-chain-collapse",
                  "structural-hash", "dead-sweep"},
                 /*cost_driven=*/false},
      // CSE + DCE only: keeps the delay-balancing redundancy of the
      // generated storage trees, trading a little area for markedly
      // fewer glitch transitions (the measured ~25% switching-energy
      // cut that motivated flow selection).
      FlowRecipe{"energy",
                 {"structural-hash", "dead-sweep"},
                 /*cost_driven=*/false},
      // Area passes plus tree re-balancing, every application gated by
      // the cost model.
      FlowRecipe{"balanced",
                 {"constant-propagation", "buffer-chain-collapse",
                  "structural-hash", "rebalance-trees", "dead-sweep"},
                 /*cost_driven=*/true},
      FlowRecipe{"none", {}, /*cost_driven=*/false},
  };
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

// --- PassManager -------------------------------------------------------------

namespace {

/// Fixpoint guard: maximum sweeps over the whole recipe.  Real circuits
/// converge in 2-4 sweeps; the cap only bounds pathology.
constexpr int kMaxIterations = 16;

std::vector<Pass> resolve(const FlowRecipe& recipe) {
  std::vector<Pass> passes;
  passes.reserve(recipe.passes.size());
  for (const std::string& name : recipe.passes) {
    passes.push_back(find_pass(name));
  }
  return passes;
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

}  // namespace

PassManager::PassManager(FlowRecipe recipe, OptOptions options,
                         const CostModel* cost_model)
    : recipe_(std::move(recipe)),
      passes_(resolve(recipe_)),
      options_(options),
      cost_model_(cost_model) {}

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

OptReport PassManager::run(netlist::Module& m) const {
  PML_OBS_SPAN("opt.run");
  const auto run_start = std::chrono::steady_clock::now();
  OptReport report;
  report.recipe = recipe_.name;
  report.before = m.stats();
  report.after = report.before;
  // Every resolved pass gets a timing slot up front, in recipe order, so
  // the profile reads as the recipe even for passes that never fire.
  report.pass_times.reserve(passes_.size());
  for (const Pass& pass : passes_) {
    report.pass_times.push_back(PassTiming{.pass = pass.name});
  }
  if (!options_.enabled) return report;

  // Cost gating needs a model; without one a cost-driven recipe runs
  // ungated (the caller opted out of measurement).
  const bool cost_gate = recipe_.cost_driven && cost_model_ != nullptr;
  double current_cost = -1.0;
  if (cost_model_ != nullptr) {
    PML_OBS_SPAN("opt.cost_probe");
    current_cost = cost_model_->cost(m);
    ++report.cost_probes;
    PML_OBS_COUNT("opt.cost_probes", 1);
  }
  report.cost_before = current_cost;

  // A pass rejected by the cost gate would produce the identical (and
  // identically priced) candidate until some *other* pass changes the
  // module, so it is vetoed — skipping the module copy and probe replay
  // — until an acceptance clears the veto.
  std::vector<bool> vetoed(passes_.size(), false);
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    report.iterations = iter + 1;
    bool changed = false;
    for (std::size_t pi = 0; pi < passes_.size(); ++pi) {
      const Pass& pass = passes_[pi];
      PassTiming& timing = report.pass_times[pi];
      if (cost_gate) {
        if (vetoed[pi]) continue;
        PML_OBS_SPAN("opt.pass." + pass.name);
        const auto pass_start = std::chrono::steady_clock::now();
        ++timing.applications;
        PML_OBS_COUNT("opt.pass.applications", 1);
        // Measure-then-commit: run the pass on the pooled scratch copy,
        // price the result with the model, and keep it only when it does
        // not worsen the measured cost.  Commit is a swap, so the
        // rejected buffer's capacity feeds the next refill.
        netlist::Module& candidate = scratch_;
        candidate = m;
        PassDelta delta = pass.run(candidate);
        debug_validate(candidate, pass.name);
        if (!delta.changed()) {
          timing.seconds += seconds_between(pass_start,
                                            std::chrono::steady_clock::now());
          continue;
        }
        const double candidate_cost = cost_model_->cost(candidate);
        ++timing.cost_probes;
        ++report.cost_probes;
        PML_OBS_COUNT("opt.cost_probes", 1);
        if (candidate_cost <= current_cost) {
          std::swap(m, candidate);
          current_cost = candidate_cost;
          changed = true;
          report.deltas.push_back(std::move(delta));
          std::fill(vetoed.begin(), vetoed.end(), false);
          ++timing.accepted;
          PML_OBS_COUNT("opt.pass.accepted", 1);
        } else {
          vetoed[pi] = true;
          report.rejected.push_back(pass.name);
          ++timing.rejected;
          PML_OBS_COUNT("opt.pass.rejected", 1);
        }
        timing.seconds += seconds_between(pass_start,
                                          std::chrono::steady_clock::now());
      } else {
        PML_OBS_SPAN("opt.pass." + pass.name);
        const auto pass_start = std::chrono::steady_clock::now();
        ++timing.applications;
        PML_OBS_COUNT("opt.pass.applications", 1);
        PassDelta delta = pass.run(m);
        debug_validate(m, pass.name);
        if (delta.changed()) {
          changed = true;
          report.deltas.push_back(std::move(delta));
          ++timing.accepted;
          PML_OBS_COUNT("opt.pass.accepted", 1);
        }
        timing.seconds += seconds_between(pass_start,
                                          std::chrono::steady_clock::now());
      }
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
  } else if (cost_model_ != nullptr) {
    PML_OBS_SPAN("opt.cost_probe");
    report.cost_after = cost_model_->cost(m);
    ++report.cost_probes;
    PML_OBS_COUNT("opt.cost_probes", 1);
  } else {
    report.cost_after = -1.0;
  }
  report.opt_seconds =
      seconds_between(run_start, std::chrono::steady_clock::now());
  return report;
}

OptReport PassManager::run_best(netlist::Module& m,
                                const std::vector<FlowRecipe>& flows,
                                const CostModel& cost_model,
                                const OptOptions& options) {
  if (flows.empty()) {
    throw std::invalid_argument("PassManager::run_best: no flows");
  }
  PML_OBS_SPAN("opt.run_best");
  bool have_best = false;
  double best_cost = 0.0;
  netlist::Module best_module;
  OptReport best_report;
  // "best" pays for every recipe it tries; the winner's report carries
  // the whole bill so callers see the true selection cost.
  double total_seconds = 0.0;
  std::uint64_t total_probes = 0;
  for (const FlowRecipe& flow : flows) {
    netlist::Module candidate = m;
    OptReport report =
        PassManager(flow, options, &cost_model).run(candidate);
    total_seconds += report.opt_seconds;
    total_probes += report.cost_probes;
    const double cost = report.cost_after;
    if (!have_best || cost < best_cost) {
      have_best = true;
      best_cost = cost;
      best_module = std::move(candidate);
      best_report = std::move(report);
    }
  }
  m = std::move(best_module);
  best_report.opt_seconds = total_seconds;
  best_report.cost_probes = total_probes;
  return best_report;
}

}  // namespace pml::opt
