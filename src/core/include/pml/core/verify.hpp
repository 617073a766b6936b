#pragma once
// Batched, multi-threaded bit-exactness verification — the engine behind
// evaluate_circuit's hard gate (flow step 6).
//
// The workload is cut into kLanes-sample batches (64 on the u64 reference
// backend, 256/512 under AVX2/AVX-512); each batch is classified in one
// pass of the bit-parallel sim::BatchSimulator, and batches are
// sharded across std::thread workers (each worker owns one simulator; all
// workers share one Levelization).  Sequential circuits free-run across
// the batches each worker claims — no reset between batches — exercising
// the paper's back-to-back classification protocol.  Note that which
// batches share a simulator therefore depends on thread scheduling: a
// correct circuit (classifies from any reachable state, as the generators
// guarantee and the equivalence tests prove) verifies identically either
// way, but a state-leaking buggy circuit may be caught under one
// scheduling and not another — no single replay order, including the old
// scalar one, exercises every history.

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "pml/netlist/module.hpp"
#include "pml/sim/backend.hpp"
#include "pml/sim/levelize.hpp"
#include "pml/util/cancellation.hpp"

namespace pml::core {

class EvalContext;

/// Feature codes (already quantized) and the reference prediction for each
/// verification sample.
struct CircuitWorkload {
  std::vector<std::vector<std::int64_t>> feature_codes;
  std::vector<int> expected_class;
};

struct VerifyOptions {
  /// Worker threads; 0 = one per hardware thread (clamped to the batch
  /// count, so small workloads never spawn idle threads).
  std::size_t num_threads = 0;
  /// Stop scheduling new batches once this many mismatches are recorded
  /// (1 = fail fast; the default counts every mismatch).
  std::size_t max_mismatches = std::numeric_limits<std::size_t>::max();
  /// Optional pre-derived levelization shared with the caller's other
  /// analyses; nullptr derives one internally.
  std::shared_ptr<const sim::Levelization> levelization;
  /// Optional pooled scratch: workers rebind the context's pooled
  /// BatchSimulators and the feature ports resolve into its pooled
  /// vector — the zero-allocation path of evaluate_circuit.  The context
  /// must not be shared with a concurrent evaluation; nullptr runs the
  /// same path on a call-local context.
  EvalContext* context = nullptr;
  /// Optional cooperative cancellation: workers check between batches
  /// and throw util::Cancelled, so a cancel/deadline stops the sweep at
  /// the next batch boundary instead of running to completion.  Null
  /// (the default) costs one branch per batch.
  const util::CancellationToken* cancel = nullptr;
  /// SWAR lane-word backend (kAuto = widest available; see
  /// sim::resolve_backend).  Every backend is bit-exact against u64, so
  /// this knob can never change the result — only throughput.
  sim::Backend backend = sim::Backend::kAuto;
};

struct VerifyMismatch {
  std::size_t sample = 0;
  int predicted = 0;
  int expected = 0;
};

struct VerifyResult {
  std::size_t samples = 0;
  /// Mismatches recorded before the max_mismatches cut-off (an exact total
  /// when the cap was never hit).
  std::size_t mismatches = 0;
  /// The lowest-index mismatch in the workload, if any.  Guaranteed even
  /// under max_mismatches and threading: batches are claimed in index
  /// order and an in-flight batch always completes, so the batch holding
  /// the globally first mismatch is always scanned before the cap can
  /// stop scheduling.
  std::optional<VerifyMismatch> first;
  [[nodiscard]] bool ok() const { return mismatches == 0; }
};

/// Resolve the "x0".."x{count-1}" input ports once, in feature order
/// (shared by the verification gate and the power-replay loop).  Throws
/// std::invalid_argument on a missing port.
[[nodiscard]] std::vector<const netlist::Port*> feature_ports(
    const netlist::Module& module, std::size_t count);

/// As above into a reused vector (allocation-free once `out` has the
/// capacity; port names up to "x" + 14 digits stay within SSO).
void feature_ports_into(std::vector<const netlist::Port*>& out,
                        const netlist::Module& module, std::size_t count);

/// Verify `module` (inputs "x0".."x{m-1}", output "class") against the
/// workload's expected classes.  `cycles_per_inference` clock cycles per
/// sample for sequential circuits; purely combinational circuits are
/// settled once per sample.  Throws std::invalid_argument on an empty or
/// lopsided workload or missing ports.
[[nodiscard]] VerifyResult verify_workload(const netlist::Module& module,
                                           int cycles_per_inference,
                                           const CircuitWorkload& workload,
                                           const VerifyOptions& options = {});

}  // namespace pml::core
