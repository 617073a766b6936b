#include "pml/sim/backend.hpp"

#include <cstdlib>
#include <stdexcept>

namespace pml::sim {

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kAuto:
      return "auto";
    case Backend::kU64:
      return "u64";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kAvx512:
      return "avx512";
  }
  return "?";
}

Backend parse_backend(const std::string& name) {
  if (name == "auto") return Backend::kAuto;
  if (name == "u64") return Backend::kU64;
  if (name == "avx2") return Backend::kAvx2;
  if (name == "avx512") return Backend::kAvx512;
  throw std::invalid_argument("unknown sim backend '" + name +
                              "' (valid: auto, u64, avx2, avx512)");
}

bool backend_compiled(Backend b) {
  switch (b) {
    case Backend::kU64:
      return true;
    case Backend::kAvx2:
#if defined(PML_SIM_HAVE_AVX2)
      return true;
#else
      return false;
#endif
    case Backend::kAvx512:
#if defined(PML_SIM_HAVE_AVX512)
      return true;
#else
      return false;
#endif
    case Backend::kAuto:
      return false;
  }
  return false;
}

bool backend_cpu_supported(Backend b) {
  switch (b) {
    case Backend::kU64:
      return true;
    case Backend::kAvx2:
#if defined(__GNUC__) || defined(__clang__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Backend::kAvx512:
#if defined(__GNUC__) || defined(__clang__)
      return __builtin_cpu_supports("avx512f") != 0;
#else
      return false;
#endif
    case Backend::kAuto:
      return false;
  }
  return false;
}

bool backend_available(Backend b) {
  return backend_compiled(b) && backend_cpu_supported(b);
}

std::vector<Backend> available_backends() {
  std::vector<Backend> out;
  for (const Backend b : {Backend::kU64, Backend::kAvx2, Backend::kAvx512}) {
    if (backend_available(b)) out.push_back(b);
  }
  return out;
}

std::size_t backend_lanes(Backend b) {
  switch (b) {
    case Backend::kU64:
      return 64;
    case Backend::kAvx2:
      return 256;
    case Backend::kAvx512:
      return 512;
    case Backend::kAuto:
      break;
  }
  throw std::invalid_argument("backend_lanes: kAuto is not a concrete backend");
}

Backend resolve_backend(Backend requested) {
  if (requested != Backend::kAuto) {
    if (backend_available(requested)) return requested;
    throw std::runtime_error(
        std::string("sim backend '") + backend_name(requested) +
        "' is unavailable (" +
        (backend_compiled(requested) ? "CPU does not support it"
                                     : "not compiled into this binary") +
        ")");
  }
  // Environment override first: a forced backend that is unavailable is a
  // configuration error (e.g. a CI leg typo) and must fail loudly.
  if (const char* env = std::getenv("PML_SIM_BACKEND");
      env != nullptr && *env != '\0') {
    const Backend forced = parse_backend(env);
    if (forced != Backend::kAuto) {
      if (!backend_available(forced)) {
        throw std::runtime_error(
            std::string("PML_SIM_BACKEND=") + env +
            " requests an unavailable backend (" +
            (backend_compiled(forced) ? "CPU does not support it"
                                      : "not compiled into this binary") +
            ")");
      }
      return forced;
    }
  }
  Backend widest = Backend::kU64;
  if (backend_available(Backend::kAvx2)) widest = Backend::kAvx2;
  if (backend_available(Backend::kAvx512)) widest = Backend::kAvx512;
  return widest;
}

}  // namespace pml::sim
