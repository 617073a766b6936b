#include "pml/core/activity.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "backends/batch_loops.hpp"
#include "pml/core/eval_context.hpp"
#include "pml/obs/metrics.hpp"
#include "pml/obs/trace.hpp"
#include "pml/sim/batch_event_sim.hpp"
#include "pml/sim/batch_sim.hpp"
#include "pml/util/task_pool.hpp"

namespace pml::core {
namespace {

constexpr std::size_t kLanes = sim::BatchEventSimulator::kLanes;

/// Warm lanes [0, lanes) up from reset on the zero-delay engine, lane l on
/// the sample before first + l of the n replayed ones (cyclically, so
/// sample 0 warms up on the last one), and hand the settled state to the
/// event engine with lanes [0, lanes) counted.  The warm-up adds nothing
/// to the event engine's counters.
void warm_up(sim::BatchSimulator& zsim, sim::BatchEventSimulator& esim,
             const backends::JobBase& job, std::size_t n, std::size_t first,
             std::size_t lanes) {
  zsim.reset();
  backends::run_inference(zsim, job, lanes, [&](std::size_t l) {
    return (first + l + n - 1) % n;
  });
  esim.import_state(zsim);
  std::uint64_t mask = 0;
  sim::prefix_lane_mask(lanes, &mask, 1);
  esim.set_count_mask_chunks(&mask);
}

/// The replay's exactness check for one batch of `count` lanes: in every
/// state word, lane l of `warm` must equal lane l - 1 of `end` for l in
/// [1, count), and lane 0 must equal lane `prev_last` of `prev_end`, the
/// end state of the sample before the batch's first.
[[nodiscard]] bool lanes_chain(const std::uint64_t* warm,
                               const std::uint64_t* end, std::size_t count,
                               const std::uint64_t* prev_end,
                               std::size_t prev_last, std::size_t words) {
  std::uint64_t live = 0;
  sim::prefix_lane_mask(count, &live, 1);
  std::uint64_t diff = 0;
  for (std::size_t w = 0; w < words; ++w) {
    // Shift `end` up one lane; the predecessor's last lane shifts into
    // lane 0.
    diff |= (warm[w] ^ (end[w] << 1 | (prev_end[w] >> prev_last & 1))) & live;
  }
  return diff == 0;
}

}  // namespace

sim::ActivityStats collect_activity(const netlist::Module& module,
                                    const cells::CellLibrary& lib,
                                    int cycles_per_inference,
                                    const CircuitWorkload& workload,
                                    std::size_t num_samples,
                                    const ActivityOptions& options) {
  sim::ActivityStats merged;
  collect_activity_into(merged, module, lib, cycles_per_inference, workload,
                        num_samples, options);
  return merged;
}

void collect_activity_into(sim::ActivityStats& out,
                           const netlist::Module& module,
                           const cells::CellLibrary& lib,
                           int cycles_per_inference,
                           const CircuitWorkload& workload,
                           std::size_t num_samples,
                           const ActivityOptions& options) {
  // The caller's context, else a call-local one (see verify_workload).
  std::optional<EvalContext> local;
  EvalContext& ctx =
      options.context != nullptr ? *options.context : local.emplace();
  backends::JobBase job;
  backends::prepare_job(job, "collect_activity", module, cycles_per_inference,
                        workload.feature_codes, ctx.ports,
                        options.levelization, options.cancel);
  const std::size_t n = std::min(num_samples, workload.feature_codes.size());
  if (n == 0) throw std::invalid_argument("collect_activity: zero samples");

  // One lane per sample: batch b holds samples [b * 64, min(n, b * 64 + 64)).
  const std::size_t num_batches = (n + kLanes - 1) / kLanes;
  const std::size_t num_threads =
      backends::clamp_threads(options.num_threads, num_batches);
  const auto lanes_of = [&](std::size_t b) {
    return std::min(kLanes, n - b * kLanes);
  };

  // Batch b's warmed state, then its end state.  Each batch writes its
  // own slots, so workers need no locking.
  const std::size_t words =
      sim::BatchEventSimulator::state_words(module, *job.lv);
  std::vector<std::uint64_t>& states = ctx.replay_states;
  states.resize(2 * num_batches * words);
  const auto state = [&](std::size_t b, bool end) {
    return states.data() + (2 * b + end) * words;
  };

  // Each worker's event engine accumulates the counts of the batches it
  // claims; they are summed after the join.  Addition of integer counts
  // is commutative, so the total is independent of which worker claims
  // which batch.
  ctx.ensure_workers(num_threads);
  std::atomic<std::size_t> next_batch{0};
  auto worker = [&](std::size_t slot) {
    PML_OBS_SPAN("activity.worker");
    // Rebind this slot's warmed engines (zero allocation for
    // same-shaped modules; clears the event engine's counters).
    EvalContext::WorkerScratch& ws = ctx.worker(slot);
    sim::BatchSimulator& zsim = backends::pooled_batch<sim::LaneU64>(ws);
    sim::BatchEventSimulator& esim = ws.event;
    if (esim.bound()) PML_OBS_COUNT("eval.pool_reuse", 1);
    zsim.rebind(module, job.lv);
    esim.rebind(module, lib, kTimeQuantumMs, job.lv);
    for (;;) {
      // Cancellation checkpoint between batches (see verify_workload).
      if (job.cancel != nullptr) job.cancel->check("activity.batch");
      const std::size_t b = next_batch.fetch_add(1, std::memory_order_relaxed);
      if (b >= num_batches) return;
      const std::size_t begin = b * kLanes;
      const std::size_t count = lanes_of(b);
      // Occupancy: sample-carrying lanes, against the lane words each
      // engine evaluates.  Each sums to the sample count.
      PML_OBS_COUNT("sim.batch_event.batches", 1);
      PML_OBS_COUNT("sim.batch_event.live_lanes", count);
      PML_OBS_COUNT("sim.batch.live_lanes", count);
      warm_up(zsim, esim, job, n, begin, count);
      zsim.export_state(state(b, false));
      backends::run_inference(esim, job, count,
                              [begin](std::size_t l) { return begin + l; });
      esim.export_state(state(b, true));
    }
  };
  util::TaskPool::instance().run_group(num_threads, "activity.worker", worker);

  bool chained = true;
  for (std::size_t b = 0; b < num_batches && chained; ++b) {
    const std::size_t prev = (b + num_batches - 1) % num_batches;
    chained = lanes_chain(state(b, false), state(b, true), lanes_of(b),
                          state(prev, true), lanes_of(prev) - 1, words);
  }
  if (chained) {
    out = ctx.worker(0).event.activity();
    for (std::size_t t = 1; t < num_threads; ++t) {
      out.accumulate(ctx.worker(t).event.activity());
    }
    return;
  }
  // Some lane's state depends on more than its last input, so a warm-up
  // did not reproduce the state its predecessor left.  Replay the samples
  // back to back on one lane of slot 0's engines (bound above), after the
  // same warm-up on sample n - 1.
  PML_OBS_COUNT("sim.batch_event.seam_fallbacks", 1);
  EvalContext::WorkerScratch& ws = ctx.worker(0);
  warm_up(backends::pooled_batch<sim::LaneU64>(ws), ws.event, job, n, 0, 1);
  ws.event.clear_activity();
  for (std::size_t s = 0; s < n; ++s) {
    if (job.cancel != nullptr) job.cancel->check("activity.batch");
    backends::run_inference(ws.event, job, 1, [s](std::size_t) { return s; });
  }
  out = ws.event.activity();
}

}  // namespace pml::core
