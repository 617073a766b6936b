#pragma once
// Batched, multi-threaded stuck-at fault campaigns — the engine behind
// bench_fault_injection and printed-yield studies.
//
// Printed processes have defect rates orders of magnitude above silicon,
// and the paper's folded sequential SVM concentrates risk: one shared MAC
// engine means a single stuck-at fault corrupts every class score.  A
// campaign takes a list of fault sets (each a list of stuck-at sites),
// packs kLanes - 1 of them per pass of the bit-parallel
// sim::BatchFaultSimulator (the zero-delay engine's stuck-at overlay) —
// 63 / 255 / 511 under u64 / AVX2 / AVX-512 (lane 0 carries the
// fault-free golden reference for free), and shards the batches across
// util::TaskPool workers sharing one Levelization — the same pattern as
// core::verify_workload / core::collect_activity.
//
// Protocol, per fault variant: install the stuck-at faults, reset the
// circuit (power-on DFF state, settle with faults applied), then replay
// the evaluation samples free-running in workload order, counting
// misclassifications against the workload's expected classes.  Each batch
// starts from reset, so per-variant counts are deterministic in the fault
// sets and workload alone — never in the thread configuration or batch
// claim order.  The scalar equivalent (CycleSimulator + force_net + reset
// + replay) is the oracle the test suite checks against.

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "pml/core/verify.hpp"
#include "pml/netlist/module.hpp"
#include "pml/sim/levelize.hpp"

namespace pml::core {

/// One stuck-at defect site.
struct StuckAtFault {
  netlist::NetId net = netlist::kInvalidNet;
  bool stuck_value = false;
};

/// One fault variant: all of its stuck-at sites are active simultaneously.
struct FaultSet {
  std::vector<StuckAtFault> faults;
};

/// Every single-fault variant of `module`: each cell output (DFF Qs
/// included) stuck at 0 and at 1, in cell order — 2 x num_cells sets.
[[nodiscard]] std::vector<FaultSet> enumerate_single_faults(
    const netlist::Module& module);

/// `num_sets` random multi-fault variants of `faults_per_set` stuck-at
/// sites each, drawn uniformly over cell outputs with the deterministic
/// ml::Rng stream seeded by `seed` (sites within a set may repeat; a
/// repeated net keeps the last drawn polarity, like repeated force_net).
[[nodiscard]] std::vector<FaultSet> sample_fault_sets(
    const netlist::Module& module, std::size_t faults_per_set,
    std::size_t num_sets, std::uint64_t seed);

struct FaultCampaignOptions {
  /// Worker threads; 0 = one per hardware thread (clamped to the batch
  /// count, so small campaigns never spawn idle threads).
  std::size_t num_threads = 0;
  /// Evaluation samples per variant (clamped to the workload size).
  std::size_t max_samples = std::numeric_limits<std::size_t>::max();
  /// Optional pre-derived levelization shared with the caller's other
  /// analyses; nullptr derives one internally.
  std::shared_ptr<const sim::Levelization> levelization;
  /// Optional cooperative cancellation, checked between worker batches
  /// (throws util::Cancelled) — a multi-hour campaign can be abandoned
  /// at the next variant-batch boundary.  Null = no checks.
  const util::CancellationToken* cancel = nullptr;
  /// SWAR lane-word backend (kAuto = widest available; see
  /// sim::resolve_backend).  A wider backend packs more variants per pass
  /// (63 / 255 / 511 + the golden lane) with identical per-variant counts.
  sim::Backend backend = sim::Backend::kAuto;
};

struct FaultVariantResult {
  std::size_t misclassified = 0;
  std::size_t samples = 0;
  [[nodiscard]] double accuracy() const {
    return samples == 0 ? 0.0
                        : 1.0 - static_cast<double>(misclassified) /
                                    static_cast<double>(samples);
  }
};

struct FaultCampaignResult {
  /// Fault-free reference (lane 0), on the same samples and protocol.
  FaultVariantResult golden;
  /// One entry per input fault set, in input order.
  std::vector<FaultVariantResult> variants;
};

/// Run the campaign on `module` (inputs "x0".."x{m-1}", output "class").
/// `cycles_per_inference` clock cycles per sample for sequential circuits;
/// purely combinational circuits are settled once per sample.  Throws
/// std::invalid_argument on an empty/lopsided workload, an empty fault-set
/// list, missing ports, or a fault on a constant/out-of-range net.
[[nodiscard]] FaultCampaignResult run_fault_campaign(
    const netlist::Module& module, int cycles_per_inference,
    const CircuitWorkload& workload, const std::vector<FaultSet>& fault_sets,
    const FaultCampaignOptions& options = {});

/// One row of the accuracy-vs-fault-count curve.
struct FaultCurvePoint {
  std::size_t num_faults = 0;
  std::size_t variants = 0;
  double mean_accuracy = 0.0;
  /// Variants whose accuracy fell to `broken_threshold` or below.
  std::size_t broken = 0;
};

/// Group `result.variants` by their fault-set size and average, ascending
/// in fault count; a leading 0-fault point reports the golden reference.
[[nodiscard]] std::vector<FaultCurvePoint> accuracy_vs_fault_count(
    const std::vector<FaultSet>& fault_sets, const FaultCampaignResult& result,
    double broken_threshold = 0.5);

}  // namespace pml::core
