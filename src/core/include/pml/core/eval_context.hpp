#pragma once
// Pooled per-evaluation scratch: the zero-allocation backbone of
// evaluate_circuit.
//
// One EvalContext owns every piece of reusable storage an evaluation
// needs — the shared Levelization and its arena-backed working arrays,
// per worker slot one pooled zero-delay engine per SIMD backend and the
// power replay's u64 event engine, the replay's lane states, the
// optimizer's module copy, and the timing/activity/power result records.
// evaluate_circuit_into threads it through verify_workload and
// collect_activity (via VerifyOptions::context / ActivityOptions::context;
// a call without one runs on a call-local context, built per call), so
// after the first evaluation warms the capacities up, steady-state
// evaluations of same-shaped modules perform ZERO heap allocation on the
// calling thread (proven by the allocation-hook test in
// tests/test_eval_alloc.cpp and surfaced as the obs counters
// `eval.allocs` / `eval.pool_reuse`).
//
// The zero-allocation contract holds for the single-threaded
// configuration (verify.num_threads = 1, power_threads = 1) with
// optimization disabled, module validation skipped
// (EvaluateOptions::validate_module = false), and no tracer attached;
// other configurations still reuse the pools, they just also pay for
// util::TaskPool group dispatch and optimizer passes.
//
// Failure safety: an evaluation that throws part-way (a cancellation, a
// std::bad_alloc) leaves the context reusable — the next evaluation
// overwrites every pooled record, so its report equals a fresh
// context's (tests/test_svc_chaos.cpp walks an allocation failure
// through every allocation of a cold evaluation to prove it).
//
// Thread safety: an EvalContext serves ONE evaluation at a time (its
// worker slots are handed to that evaluation's threads); use one context
// per concurrent evaluator, as svc::SweepService does per worker.

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "pml/netlist/module.hpp"
#include "pml/power/power.hpp"
#include "pml/sim/backend.hpp"
#include "pml/sim/batch_event_sim.hpp"
#include "pml/sim/event_sim.hpp"
#include "pml/sim/levelize.hpp"
#include "pml/sta/timing.hpp"
#include "pml/util/arena.hpp"

namespace pml::core {

class EvalContext {
 public:
  /// One pooled zero-delay engine per concrete sim::Backend, indexed by
  /// the enum value (slot 0, kAuto, stays empty).  Type-erased because
  /// only the per-flag backend TUs may name the wide engine types; each
  /// engine is created on first use and never evicted
  /// (src/core/src/backends/batch_loops.hpp).
  using EngineSlots =
      std::array<std::shared_ptr<void>,
                 static_cast<std::size_t>(sim::Backend::kAvx512) + 1>;
  /// Per-worker-slot simulators.  Slots live in a deque so growing the
  /// pool never moves (or copies) a simulator that an earlier evaluation
  /// warmed up.
  struct WorkerScratch {
    /// Verification on any backend, and the replay's u64 warm-ups
    /// (BatchSimulatorT).
    EngineSlots batch;
    /// The power replay and its counts (always u64).
    sim::BatchEventSimulator event;
  };

  EvalContext() = default;
  EvalContext(const EvalContext&) = delete;
  EvalContext& operator=(const EvalContext&) = delete;

  /// Re-derive the pooled levelization for `m` (arena reset + refill; the
  /// result is identical to sim::levelize) and return a non-owning handle
  /// to it.  The handle aliases storage owned by this context — it has no
  /// control block, so copying it never allocates, and it is valid until
  /// the next levelize() call.  Counts `eval.pool_reuse` on every reuse
  /// of previously warmed storage.
  std::shared_ptr<const sim::Levelization> levelize(const netlist::Module& m);

  /// Grow the worker-slot pool to at least `n` entries.  Must be called
  /// before worker threads start touching slots (slots are handed out by
  /// index; the deque itself is not synchronized).
  void ensure_workers(std::size_t n);
  [[nodiscard]] WorkerScratch& worker(std::size_t i) { return workers_[i]; }

  /// Scratch arena shared by levelize() and sta::analyze_into within one
  /// evaluation.  levelize() resets it, so per-evaluation consumers must
  /// run after levelize and before the next one.
  [[nodiscard]] util::Arena& arena() { return arena_; }

  // --- pooled evaluation storage -------------------------------------------
  // Owned here solely so their capacity survives across evaluations;
  // each evaluation overwrites them completely.
  std::vector<const netlist::Port*> ports;  ///< feature-port resolution
  sim::ActivityStats merged_activity;       ///< merged power-replay counts
  /// Power replay: each batch's warmed and end lane states, for the
  /// check that every lane was warmed into its predecessor's end state.
  std::vector<std::uint64_t> replay_states;
  sta::TimingReport timing;
  power::PowerReport power;
  netlist::Module module_scratch;  ///< the optimizer's working copy

 private:
  sim::Levelization lv_;
  /// Aliasing handle onto lv_: empty owner, so no control block and no
  /// allocation when copied into VerifyOptions/ActivityOptions/simulators.
  std::shared_ptr<const sim::Levelization> lv_handle_{
      std::shared_ptr<void>(), &lv_};
  util::Arena arena_;
  std::deque<WorkerScratch> workers_;
  bool lv_filled_ = false;  ///< levelize() ran at least once (reuse counter)
};

}  // namespace pml::core
