#pragma once
// Type-erased kernel table for the SIMD lane-word backends.
//
// Every batch driver (verify_workload, collect_activity_into,
// run_fault_campaign, probe_batch_backend) runs one width-agnostic
// preamble, prepare_job: it validates the feature rows, resolves the
// feature ports and the levelization, and fills the shared JobBase.  The
// power replay (collect_activity_into) then runs on u64 lanes directly;
// the other drivers add their own checks and fields and call through
// this table.  Each backend TU (backend_u64.cpp always; backend_avx2.cpp
// / backend_avx512.cpp compiled with the matching -m flags) instantiates
// the shared templated worker loops from batch_loops.hpp on its LaneWord
// and exposes them as plain function pointers — so no TU without the
// right -m flag ever names a vector type, and the compiler is free to use
// vector instructions everywhere inside a backend TU.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "pml/core/backend_probe.hpp"
#include "pml/core/eval_context.hpp"
#include "pml/core/fault_campaign.hpp"
#include "pml/core/verify.hpp"
#include "pml/netlist/module.hpp"
#include "pml/sim/backend.hpp"
#include "pml/sim/levelize.hpp"
#include "pml/util/cancellation.hpp"

namespace pml::core::backends {

using Rows = std::vector<std::vector<std::int64_t>>;

/// Inputs shared by every kernel: the module, its levelization, the
/// resolved feature ports, the sample-major feature rows, and the
/// clocking protocol.
struct JobBase {
  const netlist::Module* module = nullptr;
  std::shared_ptr<const sim::Levelization> lv;
  const std::vector<const netlist::Port*>* ports = nullptr;
  const Rows* rows = nullptr;
  bool sequential = false;
  int cycles_per_inference = 0;
  /// Raw thread request (0 = the pool's width); each kernel clamps it to
  /// its own work-item count, which depends on the backend's lane width.
  std::size_t num_threads = 0;
  const util::CancellationToken* cancel = nullptr;
};

/// The verify kernel runs on `context`'s worker slots, which the driver
/// always supplies (the caller's or a call-local one).
struct VerifyJob : JobBase {
  const std::vector<int>* expected_class = nullptr;
  const netlist::Port* class_port = nullptr;
  std::size_t max_mismatches = 0;
  EvalContext* context = nullptr;
};

struct FaultJob : JobBase {
  const std::vector<int>* expected_class = nullptr;
  const netlist::Port* class_port = nullptr;
  const std::vector<FaultSet>* fault_sets = nullptr;
  std::size_t num_samples = 0;
};

struct ProbeJob : JobBase {
  const netlist::Port* class_port = nullptr;
};

/// The drivers' shared preamble.  Rejects empty or ragged `rows`, resolves
/// the "x0".."x{m-1}" feature ports into `ports` and the levelization
/// (derived from `module` when `lv` is null), and fills `job`'s shared
/// fields; `num_threads` is left to the driver.  Errors are
/// std::invalid_argument prefixed with `who`.
void prepare_job(JobBase& job, const char* who, const netlist::Module& module,
                 int cycles_per_inference, const Rows& rows,
                 std::vector<const netlist::Port*>& ports,
                 std::shared_ptr<const sim::Levelization> lv,
                 const util::CancellationToken* cancel);

/// The module's "class" output; throws std::invalid_argument prefixed
/// with `who` when it is missing.
[[nodiscard]] const netlist::Port* class_port(const netlist::Module& module,
                                              const char* who);

/// One backend's kernel table.
struct Kernels {
  void (*verify)(const VerifyJob&, VerifyResult&) = nullptr;
  void (*fault)(const FaultJob&, FaultCampaignResult&) = nullptr;
  void (*probe)(const ProbeJob&, BatchProbeResult&) = nullptr;
};

/// Per-backend tables; the AVX ones return nullptr when their TU was
/// compiled without the matching -m support (PML_SIM_HAVE_* unset).
[[nodiscard]] const Kernels* kernels_u64();
[[nodiscard]] const Kernels* kernels_avx2();
[[nodiscard]] const Kernels* kernels_avx512();

/// Table for a *resolved* concrete backend (callers run
/// sim::resolve_backend first); throws std::runtime_error if the backend
/// has no compiled kernels.
[[nodiscard]] const Kernels& kernels_for(sim::Backend resolved);

}  // namespace pml::core::backends
