#pragma once
// Batched, multi-threaded glitch-activity collection — the engine behind
// evaluate_circuit's power step (flow step 7).
//
// The power-replay samples are cut into contiguous chunks of
// `chunk_samples`; each chunk becomes one lane-stream of a bit-parallel
// sim::BatchEventSimulator, and batches of kLanes chunks (64 on the u64
// reference backend, wider under AVX) run on util::TaskPool workers
// (each worker slot owns its engines; all share one Levelization — the
// same pattern as core::verify_workload).  A batch replays its chunks
// round by round; a lane whose chunk is exhausted (only possible for the
// workload's ragged final chunk) holds its inputs and is masked out of
// counting.  The merged ActivityStats are *bit-exact* against the scalar
// reference protocol:
//
//   for each chunk, independently: reset a scalar EventSimulator, apply
//   the chunk's first sample and settle/clock cycles_per_inference times
//   (warm-up, not counted), then replay every sample of the chunk in
//   order, counting; sum the per-chunk ActivityStats.
//
// How a batch gets there:
//
//  - Zero-delay warm-up.  The uncounted warm-up runs on the worker's
//    zero-delay sim::BatchSimulator, and the event engine adopts its
//    settled lane state (sim::LaneState::import_state).  The netlists are
//    acyclic, so the state after an inference is unique and this equals
//    warming up on the event engine; only the counted rounds pay for
//    delay-accurate simulation.
//  - Counted rounds.  The event engine is a levelized waveform engine:
//    each settle (or clock half) sweeps the combinational cells once in
//    Levelization::wave_order, merging each cell's input transition
//    lists into its output's list, and counts toggles as entries are
//    appended (see sim/batch_event_sim.hpp).  Its list arena is the
//    replay's main memory cost per worker slot: about 12 bytes per live
//    entry on u64, 30-140 k entries on the Table I baselines.
//  - Segments.  Unless the replay is pinned to one thread, each batch's
//    counted rounds (if at least two) split into two segments, claimed by
//    any pool worker, so even a one-batch replay fills two workers.
//    Segment 0 warms up as above; segment 1 warms up, from reset, on the
//    samples just before its first round, then counts its rounds.
//  - Seam check.  That warm-up is exact only if a lane's state at an
//    inference boundary depends on the last input alone — true of every
//    Table I design, not of every netlist.  So after the join, the end
//    state of segment k-1 must equal the warmed state of segment k word
//    for word; if any seam differs, the whole replay re-runs unsplit.
//    The counts are therefore those of the unsplit replay on every
//    netlist.
//
// Chunking is deterministic in the sample count alone, and segmenting
// never changes the counts, so the merged counts do not depend on the
// worker/thread configuration or the backend.

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
  /// Worker threads; 0 = the shared TaskPool's width (clamped to the
  /// batch x segment count, so small workloads never spawn idle threads).
  /// 1 replays every batch unsplit on the calling thread.
  std::size_t num_threads = 0;
  /// Contiguous samples per lane-stream.  Larger chunks amortize the
  /// warm-up round over more counted samples but expose less lane
  /// parallelism for a given sample count (utilization needs
  /// >= kLanes x chunk_samples samples per batch).  0 = auto: sized from
  /// the sample count alone against a fixed 512-lane reference width
  /// (clamped to [4, 16]), so the merged counts stay identical across
  /// backends, hosts and runs.
  std::size_t chunk_samples = 0;
  /// Optional pre-derived levelization shared with the caller's other
  /// analyses; nullptr derives one internally.
  std::shared_ptr<const sim::Levelization> levelization;
  /// Optional pooled scratch: workers rebind the context's pooled
  /// zero-delay and event engines, accumulate into its pooled per-slot
  /// ActivityStats and write seam snapshots into its pooled buffer — the
  /// zero-allocation path of evaluate_circuit.  The context must not be
  /// shared with a concurrent evaluation; nullptr runs the same path on
  /// a call-local context.
  EvalContext* context = nullptr;
  /// Optional cooperative cancellation, checked between worker segments
  /// (throws util::Cancelled).  Null = no checks.
  const util::CancellationToken* cancel = nullptr;
  /// SWAR lane-word backend (kAuto = u64 when every chunk fits its 64
  /// lanes, else the widest available; see sim::resolve_backend).  Bit-exact against u64 by construction, so
  /// the merged ActivityStats never depend on it.
  sim::Backend backend = sim::Backend::kAuto;
};

/// Replay the first `num_samples` workload samples (clamped to the
/// workload size) through sharded bit-parallel batch-event workers and
/// return
/// the merged delay-accurate ActivityStats — per-net transition counts
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

namespace detail {

/// collect_activity_into with `segments` counted-round segments per batch
/// (0 = the automatic choice; clamped to the counted rounds of the
/// shortest batch).  Not part of the public API: the differential tests
/// use it to pin the segment count, and read the schedule taken from the
/// counters sim.batch_event.{batches,segments,seam_fallbacks}.
void collect_activity_scheduled(sim::ActivityStats& out,
                                const netlist::Module& module,
                                const cells::CellLibrary& lib,
                                int cycles_per_inference,
                                const CircuitWorkload& workload,
                                std::size_t num_samples,
                                const ActivityOptions& options,
                                std::size_t segments);

}  // namespace detail

}  // namespace pml::core
