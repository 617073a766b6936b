#include "pml/core/verify.hpp"

#include <stdexcept>
#include <string>

#include "backends/kernels.hpp"
#include "pml/core/eval_context.hpp"
#include "pml/sim/backend.hpp"
#include "pml/sim/batch_sim.hpp"

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
  if (workload.feature_codes.empty() ||
      workload.feature_codes.size() != workload.expected_class.size()) {
    throw std::invalid_argument("verify_workload: bad workload");
  }
  const std::size_t num_features = workload.feature_codes[0].size();
  for (const auto& row : workload.feature_codes) {
    if (row.size() != num_features) {
      throw std::invalid_argument("verify_workload: ragged feature_codes");
    }
  }
  // Resolve feature ports into the context's pooled vector when pooling.
  std::vector<const netlist::Port*> local_ports;
  std::vector<const netlist::Port*>& ports =
      options.context != nullptr ? options.context->ports : local_ports;
  feature_ports_into(ports, module, num_features);
  const netlist::Port* class_port = module.find_output("class");
  if (class_port == nullptr) {
    throw std::invalid_argument("verify_workload: missing 'class' output");
  }
  const std::shared_ptr<const sim::Levelization> lv =
      options.levelization != nullptr ? options.levelization
                                      : sim::levelize_shared(module);

  backends::VerifyJob job;
  job.module = &module;
  job.lv = lv;
  job.ports = &ports;
  job.sequential = !lv->dffs.empty();
  job.cycles_per_inference = cycles_per_inference;
  job.cancel = options.cancel;
  job.workload = &workload;
  job.class_port = class_port;
  job.max_mismatches = options.max_mismatches;
  job.num_threads = options.num_threads;
  job.context = options.context;

  VerifyResult result;
  result.samples = workload.feature_codes.size();
  // The batch width (and so the thread clamp and worker loop) belongs to
  // the selected SIMD backend; everything above is width-agnostic.
  const backends::Kernels& k =
      backends::kernels_for(sim::resolve_backend(options.backend));
  k.verify(job, result);
  return result;
}

}  // namespace pml::core
