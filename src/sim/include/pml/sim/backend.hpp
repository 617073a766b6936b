#pragma once
// Runtime selection of the SWAR lane-word backend.
//
// The zero-delay batch simulators are templated on a LaneWord trait
// (sim/lanes.hpp); the wide instantiations live in translation units
// compiled with -mavx2 / -mavx512f (src/core/src/backends/).  This header
// is the runtime face of that split: a Backend enum threaded through
// core::EvaluateOptions / VerifyOptions / FaultCampaignOptions (and the
// --backend flag of bench_batch_sim and bench_fault_injection), plus the
// resolution logic that turns kAuto into the widest concrete backend that
// is both compiled in (PML_SIM_HAVE_AVX2 / PML_SIM_HAVE_AVX512, set by
// CMake) and supported by the CPU we are running on (CPUID).  Verify,
// fault campaigns and probe_batch_backend dispatch through it; the power
// replay (core::collect_activity) always runs on u64 lanes spread over
// the pool's workers, so no backend choice reaches it.
//
// Every backend is proven bit-exact lane-for-lane against the u64
// reference (tests/test_sim_backend.cpp), so the choice can never change
// results — only throughput.  That is why the sweep-service cache key
// deliberately excludes it, like the threading knobs.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pml::sim {

enum class Backend : std::uint8_t {
  kAuto = 0,  ///< widest compiled+supported backend
              ///< (PML_SIM_BACKEND overrides, e.g. =u64 in CI)
  kU64 = 1,   ///< 64-lane scalar SWAR — always available, the reference
  kAvx2 = 2,  ///< 256-lane __m256i
  kAvx512 = 3,  ///< 512-lane __m512i
};

/// Canonical lower-case name ("auto", "u64", "avx2", "avx512").
[[nodiscard]] const char* backend_name(Backend b);

/// Inverse of backend_name; throws std::invalid_argument on an unknown
/// name (the message lists the valid ones).
[[nodiscard]] Backend parse_backend(const std::string& name);

/// True when the backend's kernels were compiled into this binary
/// (kU64 always; kAvx2/kAvx512 when CMake found the -m flags and
/// PML_SIMD_BACKENDS was ON).  kAuto is not a concrete backend: false.
[[nodiscard]] bool backend_compiled(Backend b);

/// True when the running CPU can execute the backend's instructions.
[[nodiscard]] bool backend_cpu_supported(Backend b);

/// Compiled in AND supported by this CPU.
[[nodiscard]] bool backend_available(Backend b);

/// Every available concrete backend, narrowest (kU64) first.
[[nodiscard]] std::vector<Backend> available_backends();

/// Lanes per batch word of a concrete backend (64 / 256 / 512); throws
/// std::invalid_argument for kAuto.
[[nodiscard]] std::size_t backend_lanes(Backend b);

/// Resolve a requested backend to a concrete one:
///   - kAuto: honor the PML_SIM_BACKEND environment variable when set
///     ("u64"/"avx2"/"avx512" must be available or this throws — a
///     misconfigured CI leg must fail loudly, not silently fall back;
///     "auto" and empty mean no override).  Otherwise pick the widest
///     available backend.
///   - concrete: returned as-is when available, otherwise throws
///     std::runtime_error naming what is missing (not compiled vs not
///     supported by the CPU).
/// Allocation-free, so the zero-allocation evaluation path may call it.
[[nodiscard]] Backend resolve_backend(Backend requested);

}  // namespace pml::sim
