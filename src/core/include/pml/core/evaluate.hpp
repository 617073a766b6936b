#pragma once
// Gate-level evaluation harness: the stand-in for the paper's Synopsys
// DC + PrimeTime step.
//
//  0. *Optimize*: the selected opt flow runs on a copy of the module
//     (optimize_on_workload, which probes cost-driven flows with this
//     workload).
//  1. *Verify*: simulate the circuit (bit-parallel zero-delay batch
//     simulator, sharded across threads — see core/verify.hpp) on every
//     workload sample and require the predicted class to equal the integer
//     software model's prediction — bit-exactness is a hard gate.
//  2. *Time*: STA gives the critical path => clock frequency and latency.
//  3. *Power*: a sample subset is replayed with real gate delays through
//     sharded bit-parallel batch-event workers (see
//     core/activity.hpp), counting every transition (including glitches);
//     the power model converts the merged counts to dynamic power and
//     adds static.

#include <cstdint>
#include <limits>
#include <vector>

#include "pml/cells/library.hpp"
#include "pml/core/eval_context.hpp"
#include "pml/core/hardware_report.hpp"
#include "pml/core/verify.hpp"
#include "pml/netlist/module.hpp"
#include "pml/opt/optimizer.hpp"

namespace pml::core {

/// Workload samples probed per cost-model query when the selected flow is
/// cost-driven ("balanced") or a selection policy ("best"): the
/// opt::SwitchingEnergyCost replays them through the batch event
/// simulator to price candidate netlists by measured switching energy.
inline constexpr std::size_t kCostProbeSamples = 48;

struct EvaluateOptions {
  /// Samples replayed through the batch-event simulator for power (the
  /// full workload is always used for functional verification).
  std::size_t power_samples = 120;
  /// Worker threads for the power replay; 0 = one per hardware thread.
  std::size_t power_threads = 0;
  /// Throw on any circuit-vs-model mismatch (always keep on; exposed for
  /// the failure-injection tests).
  bool require_bit_exact = true;
  /// Run Module::validate() before evaluating.  Callers that already
  /// validated the module (e.g. svc::SweepService validates once at job
  /// submission) skip the re-check — validate() builds temporary
  /// diagnostics, so skipping it is also part of the zero-allocation
  /// steady-state contract.
  bool validate_module = true;
  /// Batch-verification knobs.  The levelization, context, cancellation
  /// and backend of the verify step come from evaluate_circuit itself.
  struct Verify {
    /// Worker threads; 0 = the shared TaskPool's width.
    std::size_t num_threads = 0;
    /// Honored when set; the default means fail-fast under
    /// require_bit_exact and count every mismatch otherwise.
    std::size_t max_mismatches = std::numeric_limits<std::size_t>::max();
  } verify;
  /// Run the opt flow named by `optimize.flow` on a copy of the module
  /// before levelization (see optimize_on_workload) — verification,
  /// timing, activity, and power then all see the optimized netlist (a
  /// fast no-op when the module already went through the same flow).
  /// Disable via optimize.enabled to measure the module exactly as handed
  /// in.  Pre/post ModuleStats and the chosen recipe land in the
  /// HardwareReport.
  opt::OptOptions optimize;
  /// SIMD lane-word backend of the verify phase.  kAuto picks the widest
  /// backend the CPU supports; results are bit-identical across backends
  /// — only throughput changes.  The activity replay and the optimizer's
  /// cost-model probes always run on u64 lanes.
  sim::Backend backend = sim::Backend::kAuto;
  /// Optional cooperative cancellation: checked at every phase boundary
  /// (optimize -> levelize -> verify -> sta -> activity -> power) and
  /// threaded into the verify/activity worker batch loops, so a cancel
  /// request or expired deadline aborts the evaluation with
  /// util::Cancelled at the next checkpoint instead of running the
  /// remaining phases.  Null (the default) adds one branch per phase —
  /// the zero-allocation and throughput contracts are unaffected.
  const util::CancellationToken* cancel = nullptr;
};

/// Evaluate `module` (inputs "x0".."x{m-1}", output "class") over the
/// workload.  `cycles_per_inference` is 1 for combinational designs, n for
/// the sequential SVM.  Fills every field of HardwareReport except
/// `dataset`, `model`, and `accuracy` (the caller owns those).
///
/// Determinism: every result field depends only on the module, workload,
/// library, and options — never on thread counts or scheduling (the
/// wall-clock `opt_seconds`/`opt_pass_times` fields are observability
/// only).  This is what makes sweep-service cache hits byte-identical to
/// fresh evaluations.
///
/// Thread safety: safe to call concurrently on distinct modules/contexts;
/// the module and workload are only read.
[[nodiscard]] HardwareReport evaluate_circuit(const netlist::Module& module,
                                              int cycles_per_inference,
                                              const cells::CellLibrary& lib,
                                              const CircuitWorkload& workload,
                                              const EvaluateOptions& options = {});

/// As above, but every piece of scratch an evaluation needs comes from
/// `ctx` and the result is written into `rep` (reusing its capacity;
/// `dataset`/`model`/`accuracy` are left untouched).  After `ctx` and
/// `rep` are warmed up by a first call, repeat evaluations of same-shaped
/// modules perform zero steady-state heap allocation on the calling
/// thread under the contract documented in eval_context.hpp.  The
/// allocation delta of each call lands in the obs counter `eval.allocs`
/// (counted only when the binary installs
/// PML_INSTALL_COUNTING_ALLOC_HOOK), pool reuse in `eval.pool_reuse`.
void evaluate_circuit_into(EvalContext& ctx, HardwareReport& rep,
                           const netlist::Module& module,
                           int cycles_per_inference,
                           const cells::CellLibrary& lib,
                           const CircuitWorkload& workload,
                           const EvaluateOptions& options = {});

/// Run the flow `options` names on `module` in place, the one place that
/// decides whether a flow needs a workload-probed cost model: cost-driven
/// recipes ("balanced") and the "best" policy get an
/// opt::SwitchingEnergyCost replaying the workload's leading
/// kCostProbeSamples samples (aligned with the module's input ports);
/// other flows, and modules whose inputs are not the workload's feature
/// ports, run without one.  Used by evaluate_circuit and by design flows
/// that optimize a raw circuit before evaluating it.
opt::OptReport optimize_on_workload(netlist::Module& module,
                                    int cycles_per_inference,
                                    const cells::CellLibrary& lib,
                                    const CircuitWorkload& workload,
                                    const opt::OptOptions& options);

}  // namespace pml::core
