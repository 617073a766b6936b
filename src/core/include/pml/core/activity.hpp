#pragma once
// Batched, multi-threaded glitch-activity collection — the engine behind
// evaluate_circuit's power step (flow step 7).
//
// The merged ActivityStats are *bit-exact* against the paper's protocol,
// the test set replayed back to back:
//
//   reset a scalar EventSimulator, apply sample n - 1 and settle/clock
//   cycles_per_inference times (warm-up, not counted), then replay
//   samples 0 .. n - 1 in order, counting.
//
// How the batch replay gets there:
//
//  - One lane per sample.  Batch b holds the consecutive samples
//    [b * 64, min(n, (b + 1) * 64)) of one 64-lane bit-parallel
//    sim::BatchEventSimulator.  Batches run on util::TaskPool workers,
//    claimed one at a time; each worker slot owns its engines and all
//    share one Levelization (the same pattern as core::verify_workload).
//    The replay always runs on u64 lane words: every production replay
//    holds at most a few hundred samples, which a handful of u64 batches
//    spread over the workers cover, where one mostly idle wide word would
//    run them on one worker with larger list entries.  No sim::Backend
//    choice (option or PML_SIM_BACKEND) reaches it.
//  - Zero-delay warm-up.  Lane l, carrying sample s, first warms up from
//    reset on sample (s - 1) mod n, uncounted, on the worker's zero-delay
//    sim::BatchSimulator, and the event engine adopts its settled lane
//    state (sim::LaneState::import_state).  The netlists are acyclic, so
//    the state after an inference is unique and this equals warming up
//    on the event engine; only the counted inference pays for
//    delay-accurate simulation.
//  - Counted inference.  The event engine is a levelized waveform engine:
//    each settle (or clock half) sweeps the combinational cells once in
//    Levelization::wave_order, merging each cell's input transition lists
//    into its output's list, and counts toggles as entries are appended
//    (see sim/batch_event_sim.hpp).  Its list arena is the replay's main
//    memory cost per worker slot: 12 bytes per live entry, 30-140 k
//    entries on the Table I baselines.
//  - Exactness check.  A warm-up reproduces the back-to-back state only
//    if a lane's state at an inference boundary depends on the last input
//    alone — true of every generated design, not of every netlist.  So
//    after the join, every lane's warmed state must equal, word for word,
//    the end state of the lane carrying the sample before it (cyclically:
//    sample 0's warm-up against sample n - 1's end).  If any differs, the
//    replay re-runs the protocol above on one lane of one engine.
//
// The counts are therefore those of the back-to-back replay on every
// netlist, and do not depend on the thread count.

#include <cstddef>
#include <memory>

#include "pml/cells/library.hpp"
#include "pml/core/verify.hpp"
#include "pml/netlist/module.hpp"
#include "pml/sim/event_sim.hpp"
#include "pml/sim/levelize.hpp"

namespace pml::core {

/// Event-simulator tick (ms) of every activity replay and cost-model
/// probe; the scalar reference must use the same tick for bit-exact
/// equivalence.
inline constexpr double kTimeQuantumMs = 0.02;

struct ActivityOptions {
  /// Worker threads; 0 = the shared TaskPool's width.  Clamped to the
  /// batch count, so a replay that fits one lane word runs on the calling
  /// thread.
  std::size_t num_threads = 0;
  /// Optional pre-derived levelization shared with the caller's other
  /// analyses; nullptr derives one internally.
  std::shared_ptr<const sim::Levelization> levelization;
  /// Optional pooled scratch: workers rebind the context's pooled
  /// zero-delay and event engines, which accumulate the counts, and write
  /// the lane states of the exactness check into its pooled buffer — the
  /// zero-allocation path of evaluate_circuit.
  /// The context must not be shared with a concurrent evaluation; nullptr
  /// runs the same path on a call-local context.
  EvalContext* context = nullptr;
  /// Optional cooperative cancellation, checked between batches
  /// (throws util::Cancelled).  Null = no checks.
  const util::CancellationToken* cancel = nullptr;
};

/// Replay the first `num_samples` workload samples (clamped to the
/// workload size) through sharded bit-parallel batch-event workers and
/// return the merged delay-accurate ActivityStats — per-net transition counts
/// including glitches, DFF clock events, and counted cycles — ready for
/// power::estimate.  `cycles_per_inference` clock cycles per sample for
/// sequential circuits; purely combinational circuits are settled once
/// per sample.  Throws std::invalid_argument on an empty or lopsided
/// workload, zero samples, or missing ports.
[[nodiscard]] sim::ActivityStats collect_activity(
    const netlist::Module& module, const cells::CellLibrary& lib,
    int cycles_per_inference, const CircuitWorkload& workload,
    std::size_t num_samples, const ActivityOptions& options = {});

/// As above into a reused stats record (allocation-free once `out` and the
/// context's pools have the capacity).  `out` is overwritten, not
/// accumulated into.
void collect_activity_into(sim::ActivityStats& out,
                           const netlist::Module& module,
                           const cells::CellLibrary& lib,
                           int cycles_per_inference,
                           const CircuitWorkload& workload,
                           std::size_t num_samples,
                           const ActivityOptions& options = {});

}  // namespace pml::core
