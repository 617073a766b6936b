#include "pml/core/activity.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "backends/kernels.hpp"
#include "pml/core/eval_context.hpp"
#include "pml/sim/backend.hpp"

namespace pml::core {

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
  backends::ActivityJob job;
  backends::prepare_job(job, "collect_activity", module, cycles_per_inference,
                        workload.feature_codes, ctx.ports,
                        options.levelization, options.cancel);
  const std::size_t n = std::min(num_samples, workload.feature_codes.size());
  if (n == 0) throw std::invalid_argument("collect_activity: zero samples");
  job.num_threads = options.num_threads;
  job.lib = &lib;
  job.num_samples = n;
  job.context = &ctx;

  // One lane per sample, whatever the lane width, so the counts do not
  // depend on the backend.  That frees kAuto to dispatch by occupancy:
  // samples that fit one u64 word replay on u64 rather than a mostly idle
  // wide word.
  backends::kernels_for(sim::resolve_backend(options.backend, n))
      .activity(job, out);
}

}  // namespace pml::core
