#include "pml/core/evaluate.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "pml/core/activity.hpp"
#include "pml/core/eval_context.hpp"
#include "pml/obs/metrics.hpp"
#include "pml/obs/trace.hpp"
#include "pml/opt/cost_model.hpp"
#include "pml/opt/pass_manager.hpp"
#include "pml/power/power.hpp"
#include "pml/sim/batch_sim.hpp"
#include "pml/sim/levelize.hpp"
#include "pml/sta/timing.hpp"
#include "pml/util/alloc_hook.hpp"

namespace pml::core {

namespace {

/// The cost-model probe: the workload's leading kCostProbeSamples samples
/// (capped at one batch), aligned with the module's input-port order.
/// Empty when the module's input ports are not the workload's feature
/// ports.
opt::ProbeWorkload probe_workload(const netlist::Module& module,
                                  int cycles_per_inference,
                                  const CircuitWorkload& workload) {
  opt::ProbeWorkload probe;
  probe.cycles_per_inference = cycles_per_inference;
  if (workload.feature_codes.empty()) return {};
  const std::size_t features = workload.feature_codes.front().size();
  const auto ports = feature_ports(module, features);
  // Map input-port position -> feature index so probe rows line up with
  // Module::input_ports() (what the cost model drives).
  const auto& inputs = module.input_ports();
  std::vector<std::size_t> feature_of(inputs.size());
  for (std::size_t p = 0; p < inputs.size(); ++p) {
    std::size_t j = 0;
    while (j < ports.size() && ports[j] != &inputs[p]) ++j;
    if (j == ports.size()) {
      // An input port that is not a feature port: no generic stimulus
      // available, so skip the switching probe entirely.
      return {};
    }
    feature_of[p] = j;
  }
  const std::size_t count = std::min(
      {kCostProbeSamples, workload.feature_codes.size(),
       std::size_t{sim::BatchSimulator::kLanes}});
  probe.samples.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<std::uint64_t> row(inputs.size());
    for (std::size_t p = 0; p < inputs.size(); ++p) {
      row[p] = static_cast<std::uint64_t>(
          workload.feature_codes[i][feature_of[p]]);
    }
    probe.samples.push_back(std::move(row));
  }
  return probe;
}

}  // namespace

opt::OptReport optimize_on_workload(netlist::Module& module,
                                    int cycles_per_inference,
                                    const cells::CellLibrary& lib,
                                    const CircuitWorkload& workload,
                                    const opt::OptOptions& options) {
  const bool wants_cost =
      options.enabled && (options.flow == opt::kBestFlow ||
                          opt::flow_recipe(options.flow).cost_driven);
  std::optional<opt::SwitchingEnergyCost> cost;
  if (wants_cost) {
    opt::ProbeWorkload probe =
        probe_workload(module, cycles_per_inference, workload);
    if (!probe.samples.empty()) {
      cost.emplace(lib, std::move(probe), kTimeQuantumMs);
    }
  }
  return opt::optimize(module, options, cost ? &*cost : nullptr);
}

HardwareReport evaluate_circuit(const netlist::Module& module,
                                int cycles_per_inference,
                                const cells::CellLibrary& lib,
                                const CircuitWorkload& workload,
                                const EvaluateOptions& options) {
  EvalContext ctx;
  HardwareReport rep;
  evaluate_circuit_into(ctx, rep, module, cycles_per_inference, lib, workload,
                        options);
  return rep;
}

void evaluate_circuit_into(EvalContext& ctx, HardwareReport& rep,
                           const netlist::Module& module,
                           int cycles_per_inference,
                           const cells::CellLibrary& lib,
                           const CircuitWorkload& workload,
                           const EvaluateOptions& options) {
  if (workload.feature_codes.empty() ||
      workload.feature_codes.size() != workload.expected_class.size()) {
    throw std::invalid_argument("evaluate_circuit: bad workload");
  }
  if (options.validate_module) {
    if (const auto err = module.validate()) {
      throw std::runtime_error("evaluate_circuit: invalid module: " + *err);
    }
  }

  PML_OBS_SPAN("evaluate");
  PML_OBS_COUNT("core.evaluations", 1);
  // Allocation audit for the calling thread (the single-threaded
  // zero-alloc contract); reads a thread-local counter that stays zero
  // unless the binary installs PML_INSTALL_COUNTING_ALLOC_HOOK.
  const std::uint64_t allocs_before = util::thread_alloc_count();
  rep.cycles_per_inference = cycles_per_inference;

  // Phase gate: the cancellation checkpoint.  Null in production, so
  // this is one branch per phase.
  const auto phase_gate = [&](const char* phase) {
    if (options.cancel != nullptr) options.cancel->check(phase);
  };
  phase_gate("evaluate");

  // Opt flow on a copy (the caller's module is untouched), so every
  // downstream analysis — verification, STA, activity replay, power —
  // sees the optimized netlist.  Already-optimized modules converge in
  // one cheap sweep.
  module.stats_into(rep.pre_opt_stats);
  const netlist::Module* mp = &module;
  if (options.optimize.enabled) {
    phase_gate("evaluate.optimize");
    PML_OBS_SPAN("evaluate.optimize");
    ctx.module_scratch = module;
    opt::OptReport opt_rep =
        optimize_on_workload(ctx.module_scratch, cycles_per_inference, lib,
                             workload, options.optimize);
    rep.opt_flow = opt_rep.recipe;
    rep.opt_pass_times = std::move(opt_rep.pass_times);
    rep.opt_seconds = opt_rep.opt_seconds;
    rep.opt_cost_probes = opt_rep.cost_probes;
    mp = &ctx.module_scratch;
  } else {
    rep.opt_flow = "none";
    rep.opt_pass_times.clear();
    rep.opt_seconds = 0.0;
    rep.opt_cost_probes = 0;
  }
  const netlist::Module& mod = *mp;
  mod.stats_into(rep.post_opt_stats);
  rep.num_cells = rep.post_opt_stats.num_cells;
  rep.num_dffs = rep.post_opt_stats.num_dffs;

  // One levelization per circuit, shared by the batch-verification workers
  // and the event simulator below instead of re-derived per simulator —
  // pooled in the context (arena-backed scratch, reused storage).
  phase_gate("evaluate.levelize");
  const auto lv = [&] {
    PML_OBS_SPAN("evaluate.levelize");
    return ctx.levelize(mod);
  }();

  // --- 1. functional verification (full workload, zero-delay) -------------
  // Batched bit-parallel simulation sharded across threads; the
  // scalar CycleSimulator remains available as the reference and for fault
  // injection, but the hot verification gate runs on sim::BatchSimulator.
  VerifyOptions vopts;
  vopts.num_threads = options.verify.num_threads;
  vopts.max_mismatches = options.verify.max_mismatches;
  vopts.levelization = lv;
  vopts.context = &ctx;
  vopts.cancel = options.cancel;
  vopts.backend = options.backend;
  // Fail fast only when the caller left max_mismatches at its default; a
  // caller-tuned cap (e.g. "count up to 100 mismatches") is honored.
  if (options.require_bit_exact &&
      vopts.max_mismatches == std::numeric_limits<std::size_t>::max()) {
    vopts.max_mismatches = 1;
  }
  phase_gate("evaluate.verify");
  const VerifyResult vr = [&] {
    PML_OBS_SPAN("evaluate.verify");
    return verify_workload(mod, cycles_per_inference, workload, vopts);
  }();
  if (!vr.ok() && options.require_bit_exact) {
    const VerifyMismatch& m = *vr.first;
    throw std::runtime_error(
        "evaluate_circuit: circuit/model mismatch on sample " +
        std::to_string(m.sample) + ": circuit=" + std::to_string(m.predicted) +
        " model=" + std::to_string(m.expected) + " (" +
        std::to_string(vr.mismatches) + " mismatch(es) recorded in " +
        std::to_string(vr.samples) + " samples)");
  }
  rep.verified = vr.ok();
  rep.verified_samples = vr.samples;
  rep.verified_mismatches = vr.mismatches;

  // --- 2. timing (shared levelization, arena scratch) -----------------------
  phase_gate("evaluate.sta");
  {
    PML_OBS_SPAN("evaluate.sta");
    sta::analyze_into(ctx.timing, mod, lib, *lv, ctx.arena());
  }
  rep.logic_depth = ctx.timing.logic_depth;
  const double period_ms = ctx.timing.critical_path_ms;

  // --- 3. power (batched event-driven subset replay) -----------------------
  // Sharded bit-parallel delay-accurate simulation; the scalar
  // EventSimulator remains the reference oracle (the equivalence suite in
  // tests/test_sim_batch_event.cpp proves the merged counts bit-exact).
  const std::size_t n_power =
      std::min(options.power_samples, workload.feature_codes.size());
  ActivityOptions aopts;
  aopts.num_threads = options.power_threads;
  aopts.levelization = lv;
  aopts.context = &ctx;
  aopts.cancel = options.cancel;
  phase_gate("evaluate.activity");
  {
    PML_OBS_SPAN("evaluate.activity");
    collect_activity_into(ctx.merged_activity, mod, lib, cycles_per_inference,
                          workload, n_power, aopts);
  }
  phase_gate("evaluate.power");
  {
    PML_OBS_SPAN("evaluate.power");
    power::estimate_into(ctx.power, mod, lib, ctx.merged_activity, n_power,
                         static_cast<std::size_t>(cycles_per_inference),
                         period_ms, *lv, rep.post_opt_stats);
  }
  const power::PowerReport& pr = ctx.power;

  rep.area_cm2 = pr.area_cm2;
  rep.static_mw = pr.static_mw;
  rep.dynamic_mw = pr.dynamic_mw;
  rep.dynamic_glitch_mw = pr.dynamic_glitch_mw;
  rep.functional_transitions = pr.functional_transitions;
  rep.glitch_transitions = pr.glitch_transitions;
  rep.power_mw = pr.total_mw;
  rep.frequency_hz = pr.frequency_hz;
  rep.latency_ms = pr.latency_ms;
  rep.energy_mj = pr.energy_per_inference_mj;
  rep.groups = pr.groups;
  PML_OBS_COUNT("eval.allocs", util::thread_alloc_count() - allocs_before);
}

}  // namespace pml::core
