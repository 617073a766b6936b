#include "pml/core/verify.hpp"

#include <optional>
#include <stdexcept>
#include <string>

#include "backends/kernels.hpp"
#include "pml/core/eval_context.hpp"
#include "pml/sim/backend.hpp"

namespace pml::core {

void feature_ports_into(std::vector<const netlist::Port*>& out,
                        const netlist::Module& module, std::size_t count) {
  out.clear();
  out.reserve(count);
  for (std::size_t j = 0; j < count; ++j) {
    const netlist::Port* p =
        module.find_input(std::string("x").append(std::to_string(j)));
    if (p == nullptr) {
      throw std::invalid_argument("missing input port x" + std::to_string(j));
    }
    out.push_back(p);
  }
}

std::vector<const netlist::Port*> feature_ports(const netlist::Module& module,
                                                std::size_t count) {
  std::vector<const netlist::Port*> ports;
  feature_ports_into(ports, module, count);
  return ports;
}

VerifyResult verify_workload(const netlist::Module& module,
                             int cycles_per_inference,
                             const CircuitWorkload& workload,
                             const VerifyOptions& options) {
  constexpr const char* kWho = "verify_workload";
  if (workload.feature_codes.size() != workload.expected_class.size()) {
    throw std::invalid_argument("verify_workload: bad workload");
  }
  // The caller's context, else a call-local one (built only then: its
  // constructor allocates, and the pooled path must not).
  std::optional<EvalContext> local;
  EvalContext& ctx =
      options.context != nullptr ? *options.context : local.emplace();
  backends::VerifyJob job;
  backends::prepare_job(job, kWho, module, cycles_per_inference,
                        workload.feature_codes, ctx.ports,
                        options.levelization, options.cancel);
  job.num_threads = options.num_threads;
  job.expected_class = &workload.expected_class;
  job.class_port = backends::class_port(module, kWho);
  job.max_mismatches = options.max_mismatches;
  job.context = &ctx;

  VerifyResult result;
  result.samples = workload.feature_codes.size();
  // The batch width (and so the thread clamp and worker loop) belongs to
  // the selected SIMD backend; everything above is width-agnostic.
  backends::kernels_for(sim::resolve_backend(options.backend))
      .verify(job, result);
  return result;
}

}  // namespace pml::core
