// The batch drivers' shared preamble, the resolved-backend -> kernel-table
// lookup, and the public cross-backend probe driver (the equivalence-test
// vehicle of tests/test_sim_backend).
#include <stdexcept>
#include <string>

#include "kernels.hpp"
#include "pml/core/backend_probe.hpp"
#include "pml/core/verify.hpp"

namespace pml::core::backends {

void prepare_job(JobBase& job, const char* who, const netlist::Module& module,
                 int cycles_per_inference, const Rows& rows,
                 std::vector<const netlist::Port*>& ports,
                 std::shared_ptr<const sim::Levelization> lv,
                 const util::CancellationToken* cancel) {
  const auto fail = [who](const std::string& what) {
    return std::invalid_argument(std::string(who) + ": " + what);
  };
  if (rows.empty()) throw fail("empty workload");
  for (const auto& row : rows) {
    if (row.size() != rows.front().size()) throw fail("ragged feature rows");
  }
  try {
    feature_ports_into(ports, module, rows.front().size());
  } catch (const std::invalid_argument& e) {
    throw fail(e.what());
  }
  job.module = &module;
  job.lv = lv != nullptr ? std::move(lv) : sim::levelize_shared(module);
  job.ports = &ports;
  job.rows = &rows;
  job.sequential = !job.lv->dffs.empty();
  job.cycles_per_inference = cycles_per_inference;
  job.cancel = cancel;
}

const netlist::Port* class_port(const netlist::Module& module,
                                const char* who) {
  const netlist::Port* port = module.find_output("class");
  if (port == nullptr) {
    throw std::invalid_argument(std::string(who) + ": missing 'class' output");
  }
  return port;
}

const Kernels& kernels_for(sim::Backend resolved) {
  const Kernels* k = nullptr;
  switch (resolved) {
    case sim::Backend::kU64:
      k = kernels_u64();
      break;
    case sim::Backend::kAvx2:
      k = kernels_avx2();
      break;
    case sim::Backend::kAvx512:
      k = kernels_avx512();
      break;
    case sim::Backend::kAuto:
      break;
  }
  if (k == nullptr) {
    // resolve_backend() already rejects unavailable backends; reaching
    // this means a caller skipped resolution.
    throw std::runtime_error(std::string("no kernels for sim backend '") +
                             sim::backend_name(resolved) + "'");
  }
  return *k;
}

}  // namespace pml::core::backends

namespace pml::core {

BatchProbeResult probe_batch_backend(
    const netlist::Module& module, int cycles_per_inference,
    const std::vector<std::vector<std::int64_t>>& samples,
    sim::Backend backend) {
  constexpr const char* kWho = "probe_batch_backend";
  std::vector<const netlist::Port*> ports;
  backends::ProbeJob job;
  backends::prepare_job(job, kWho, module, cycles_per_inference, samples,
                        ports, nullptr, nullptr);
  job.class_port = backends::class_port(module, kWho);

  BatchProbeResult result;
  backends::kernels_for(sim::resolve_backend(backend)).probe(job, result);
  return result;
}

}  // namespace pml::core
