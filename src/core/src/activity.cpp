#include "pml/core/activity.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "backends/kernels.hpp"
#include "pml/core/eval_context.hpp"
#include "pml/sim/backend.hpp"

namespace pml::core {

namespace {

/// chunk_samples == 0 resolves here, as a pure function of the sample
/// count: chunks are sized against a fixed 512-lane reference width (the
/// widest backend), never against the backend in use or the one the host
/// would auto-resolve.  Chunking decides which samples share a warm-up
/// round, so it feeds the merged counts; keeping it independent of the
/// CPU, PML_SIM_BACKEND and options.backend is what makes every backend
/// count identically on every host — the determinism contract, and the
/// reason the svc cache digest may leave the backend out.  Small
/// workloads get small chunks (more lanes busy in the single batch that
/// covers them); the floor of 4 keeps the warm-up round — which replays
/// each chunk's first sample without counting it — amortized over at
/// least three counted samples per chunk.
std::size_t resolve_chunk_samples(std::size_t requested, std::size_t n) {
  if (requested != 0) return requested;
  constexpr std::size_t kReferenceLanes = 512;
  const std::size_t per_lane =
      (n + 4 * kReferenceLanes - 1) / (4 * kReferenceLanes);
  return std::clamp<std::size_t>(per_lane, 4, 16);
}

}  // namespace

namespace detail {

void collect_activity_scheduled(sim::ActivityStats& out,
                                const netlist::Module& module,
                                const cells::CellLibrary& lib,
                                int cycles_per_inference,
                                const CircuitWorkload& workload,
                                std::size_t num_samples,
                                const ActivityOptions& options,
                                std::size_t segments) {
  // The caller's context, else a call-local one (see verify_workload).
  std::optional<EvalContext> local;
  EvalContext& ctx =
      options.context != nullptr ? *options.context : local.emplace();
  backends::ActivityJob job;
  backends::prepare_job(job, "collect_activity", module, cycles_per_inference,
                        workload.feature_codes, ctx.ports,
                        options.levelization, options.cancel);
  const std::size_t n = std::min(num_samples, workload.feature_codes.size());
  if (n == 0) {
    throw std::invalid_argument("collect_activity: zero samples");
  }
  job.num_threads = options.num_threads;
  job.lib = &lib;
  job.num_samples = n;
  job.chunk_samples = resolve_chunk_samples(options.chunk_samples, n);
  job.num_chunks = (n + job.chunk_samples - 1) / job.chunk_samples;
  job.context = &ctx;
  job.segments = segments;

  // Chunking is deterministic in chunk_samples alone; only the grouping
  // of chunks into batches (and so the thread clamp) depends on the
  // backend's lane width, and the merged counts are invariant to it.
  // That frees kAuto to dispatch by occupancy: chunks that fit one u64
  // word replay on u64 rather than a mostly idle wide word.
  backends::kernels_for(sim::resolve_backend(options.backend, job.num_chunks))
      .activity(job, out);
}

}  // namespace detail

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
  detail::collect_activity_scheduled(out, module, lib, cycles_per_inference,
                                     workload, num_samples, options, 0);
}

}  // namespace pml::core
