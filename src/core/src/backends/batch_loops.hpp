#pragma once
// The width-generic worker loops behind the Kernels table (kernels.hpp),
// and the helpers they share with the u64 power replay (activity.cpp).
//
// Each backend TU instantiates these templates on its LaneWord, with every
// literal 64 replaced by the backend's lane width.  The drivers have
// already run the shared preamble (prepare_job), so a loop starts from a
// validated job.  One step serves every loop that drives a batch of
// samples: run_inference drives lane l with row sample_of(l), then clocks
// cycles_per_inference times or settles; the fault loop alone broadcasts
// one row to all lanes.  Verify runs on the job's EvalContext worker
// slots (the caller's context or the driver's call-local one); the fault
// and probe loops own their engines.  Keeping these templates here,
// included only from the per-backend TUs and activity.cpp (which uses
// them on u64 alone), means the vector instantiations are compiled
// exactly once each, under the right -m flags.
//
// Width-invariance (why every backend returns identical results):
//  - verify: each lane's sample is simulated independently; lane packing
//    only changes which word a sample rides in, never its value stream.
//  - fault: every batch starts from power-on reset and variants are
//    lane-independent, so per-variant counts do not depend on packing
//    (63 vs 255 vs 511 variants per pass).
//  - probe: reset-per-batch makes even free-running sequential state
//    width-invariant (see backend_probe.hpp).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "kernels.hpp"
#include "pml/obs/metrics.hpp"
#include "pml/obs/trace.hpp"
#include "pml/sim/batch_sim.hpp"
#include "pml/sim/lanes.hpp"
#include "pml/util/task_pool.hpp"

namespace pml::core::backends {

template <class L>
inline constexpr sim::Backend kBackendOf = sim::Backend::kU64;
#if defined(__AVX2__)
template <>
inline constexpr sim::Backend kBackendOf<sim::LaneAvx2> = sim::Backend::kAvx2;
#endif
#if defined(__AVX512F__)
template <>
inline constexpr sim::Backend kBackendOf<sim::LaneAvx512> =
    sim::Backend::kAvx512;
#endif

/// A worker slot's pooled zero-delay engine for backend L, created on
/// first use and never evicted.  Every backend has its own slot, so an
/// evaluation that verifies on a wide backend and warms the power replay
/// up on u64 keeps both warm.
template <class L>
[[nodiscard]] inline sim::BatchSimulatorT<L>& pooled_batch(
    EvalContext::WorkerScratch& ws) {
  std::shared_ptr<void>& slot =
      ws.batch[static_cast<std::size_t>(kBackendOf<L>)];
  if (slot == nullptr) slot = std::make_shared<sim::BatchSimulatorT<L>>();
  return *static_cast<sim::BatchSimulatorT<L>*>(slot.get());
}

[[nodiscard]] inline std::size_t clamp_threads(std::size_t requested,
                                               std::size_t num_batches) {
  // 0 = auto: fill the shared TaskPool (max(2, hardware_concurrency) or
  // the PML_POOL_THREADS override) rather than re-deriving the hardware
  // count here; either way never more slots than batches.
  const std::size_t n =
      requested != 0 ? requested : util::TaskPool::instance().size();
  return std::min(n, num_batches);
}

/// Drive lane l of `sim` (either engine) with row sample_of(l) of the job,
/// for l in [0, lanes), and run one inference.
template <class Sim, class SampleOf>
void run_inference(Sim& sim, const JobBase& job, std::size_t lanes,
                   SampleOf sample_of) {
  std::uint64_t lane_values[Sim::kLanes];
  for (std::size_t j = 0; j < job.ports->size(); ++j) {
    for (std::size_t l = 0; l < lanes; ++l) {
      lane_values[l] = static_cast<std::uint64_t>((*job.rows)[sample_of(l)][j]);
    }
    sim.set_port(*(*job.ports)[j], lane_values, lanes);
  }
  if (job.sequential) {
    for (int c = 0; c < job.cycles_per_inference; ++c) sim.step();
  } else if constexpr (requires { sim.settle(); }) {
    sim.settle();
  } else {
    sim.propagate();
  }
}

// --- verify -----------------------------------------------------------------

template <class L>
void run_verify_loop(const VerifyJob& job, VerifyResult& result) {
  constexpr std::size_t kLanes = L::kWidth;
  const std::vector<int>& expected = *job.expected_class;
  const std::size_t num_samples = expected.size();
  const std::size_t num_batches = (num_samples + kLanes - 1) / kLanes;
  const std::size_t num_threads = clamp_threads(job.num_threads, num_batches);

  std::atomic<std::size_t> next_batch{0};
  std::atomic<std::size_t> mismatch_count{0};
  std::mutex mu;  // guards result.first (mismatches are the rare path)

  job.context->ensure_workers(num_threads);

  auto worker = [&](std::size_t slot) {
    PML_OBS_SPAN("verify.worker");
    // Rebind this slot's warmed simulator (zero allocation for
    // same-shaped modules).
    sim::BatchSimulatorT<L>& bsim = pooled_batch<L>(job.context->worker(slot));
    if (bsim.bound()) PML_OBS_COUNT("eval.pool_reuse", 1);
    bsim.rebind(*job.module, job.lv);
    for (;;) {
      if (mismatch_count.load(std::memory_order_relaxed) >=
          job.max_mismatches) {
        return;
      }
      // Cancellation checkpoint between batches: every sibling checks the
      // same token, so a cancel or deadline stops the whole verification
      // promptly, and run_group rethrows once the group has quiesced.
      if (job.cancel != nullptr) job.cancel->check("verify.batch");
      const std::size_t b = next_batch.fetch_add(1, std::memory_order_relaxed);
      if (b >= num_batches) return;
      PML_OBS_COUNT("sim.batch.batches", 1);
      const std::size_t begin = b * kLanes;
      const std::size_t count = std::min(kLanes, num_samples - begin);
      PML_OBS_COUNT("sim.batch.live_lanes", count);
      bsim.set_active_lanes(count);
      run_inference(bsim, job, count,
                    [begin](std::size_t l) { return begin + l; });
      for (std::size_t lane = 0; lane < count; ++lane) {
        const int predicted =
            static_cast<int>(bsim.port_unsigned(*job.class_port, lane));
        const std::size_t s = begin + lane;
        if (predicted != expected[s]) {
          mismatch_count.fetch_add(1, std::memory_order_relaxed);
          const std::lock_guard<std::mutex> lock(mu);
          if (!result.first.has_value() || s < result.first->sample) {
            result.first = VerifyMismatch{s, predicted, expected[s]};
          }
        }
      }
    }
  };

  util::TaskPool::instance().run_group(num_threads, "verify.worker", worker);

  result.mismatches = mismatch_count.load();
}

// --- fault campaign ---------------------------------------------------------

template <class L>
void run_fault_loop(const FaultJob& job, FaultCampaignResult& result) {
  // Lane 0 carries the golden reference, so kLanes - 1 variants ride per
  // batch (63 scalar, 255 AVX2, 511 AVX-512).
  constexpr std::size_t kVariantLanes = L::kWidth - 1;
  const Rows& rows = *job.rows;
  const std::vector<const netlist::Port*>& ports = *job.ports;
  const std::vector<FaultSet>& fault_sets = *job.fault_sets;
  const std::size_t n = job.num_samples;
  const std::size_t num_sets = fault_sets.size();
  const std::size_t num_batches =
      (num_sets + kVariantLanes - 1) / kVariantLanes;
  const std::size_t num_threads = clamp_threads(job.num_threads, num_batches);

  std::atomic<std::size_t> next_batch{0};

  // Each batch writes disjoint result slots (its own variants, plus
  // golden for batch 0 only), so workers need no locking on results.
  auto worker = [&](std::size_t /*thread_index*/) {
    PML_OBS_SPAN("fault.worker");
    sim::BatchFaultSimulatorT<L> bsim(*job.module, job.lv);
    std::size_t miscount[L::kWidth];
    for (;;) {
      // Cancellation checkpoint between variant batches: a long campaign
      // can be abandoned without waiting for the full sweep.
      if (job.cancel != nullptr) job.cancel->check("fault.batch");
      const std::size_t b = next_batch.fetch_add(1, std::memory_order_relaxed);
      if (b >= num_batches) return;
      const std::size_t begin = b * kVariantLanes;
      const std::size_t count = std::min(kVariantLanes, num_sets - begin);
      PML_OBS_COUNT("fault.batches", 1);
      PML_OBS_COUNT("fault.variants", count);

      bsim.clear_faults();
      for (std::size_t v = 0; v < count; ++v) {
        for (const StuckAtFault& f : fault_sets[begin + v].faults) {
          bsim.set_fault(f.net, v + 1, f.stuck_value);
        }
      }
      // Every batch starts from power-on reset (faults applied during the
      // settle), making the per-variant counts independent of batch order.
      bsim.reset();

      std::fill(miscount, miscount + count + 1, std::size_t{0});
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < ports.size(); ++j) {
          bsim.set_port_broadcast(*ports[j],
                                  static_cast<std::uint64_t>(rows[i][j]));
        }
        if (job.sequential) {
          for (int c = 0; c < job.cycles_per_inference; ++c) bsim.step();
        } else {
          bsim.propagate();
        }
        const int expected = (*job.expected_class)[i];
        for (std::size_t lane = 0; lane <= count; ++lane) {
          const int predicted =
              static_cast<int>(bsim.port_unsigned(*job.class_port, lane));
          miscount[lane] += predicted != expected;
        }
      }
      for (std::size_t v = 0; v < count; ++v) {
        result.variants[begin + v].misclassified = miscount[v + 1];
      }
      // Lane 0 recomputes the same golden run in every batch; record the
      // canonical copy from batch 0.
      if (b == 0) result.golden.misclassified = miscount[0];
    }
  };

  util::TaskPool::instance().run_group(num_threads, "fault.worker", worker);
}

// --- probe ------------------------------------------------------------------

template <class L>
void run_probe_loop(const ProbeJob& job, BatchProbeResult& result) {
  constexpr std::size_t kLanes = L::kWidth;
  const std::size_t num_samples = job.rows->size();
  const std::size_t num_batches = (num_samples + kLanes - 1) / kLanes;

  result.lanes = kLanes;
  result.class_values.assign(num_samples, 0);
  result.net_toggles.assign(job.module->num_nets(), 0);

  sim::BatchSimulatorT<L> bsim(*job.module, job.lv);
  for (std::size_t b = 0; b < num_batches; ++b) {
    if (job.cancel != nullptr) job.cancel->check("probe.batch");
    const std::size_t begin = b * kLanes;
    const std::size_t count = std::min(kLanes, num_samples - begin);
    // Reset per batch: every sample starts from power-on state, so the
    // outputs and toggle sums cannot depend on lane packing (see
    // backend_probe.hpp).
    bsim.reset();
    bsim.set_active_lanes(count);
    run_inference(bsim, job, count,
                  [begin](std::size_t l) { return begin + l; });
    for (std::size_t lane = 0; lane < count; ++lane) {
      result.class_values[begin + lane] =
          bsim.port_unsigned(*job.class_port, lane);
    }
    const std::vector<std::uint64_t>& toggles = bsim.toggles();
    for (std::size_t net = 0; net < toggles.size(); ++net) {
      result.net_toggles[net] += toggles[net];
    }
  }
}

/// Build one backend's kernel table from the templated loops.
template <class L>
[[nodiscard]] constexpr Kernels make_kernels() {
  Kernels k;
  k.verify = &run_verify_loop<L>;
  k.fault = &run_fault_loop<L>;
  k.probe = &run_probe_loop<L>;
  return k;
}

}  // namespace pml::core::backends
