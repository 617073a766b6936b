#pragma once
// A scoped PML_SIM_BACKEND override for tests of backend resolution.

#include <cstdlib>
#include <optional>
#include <string>

namespace pml::testutil {

/// Sets (or, for nullptr, unsets) PML_SIM_BACKEND and restores the
/// previous value on destruction (the CI matrix legs run whole test
/// binaries under PML_SIM_BACKEND=u64 or =avx2).
class ScopedBackendEnv {
 public:
  explicit ScopedBackendEnv(const char* value) {
    const char* old = std::getenv("PML_SIM_BACKEND");
    if (old != nullptr) saved_ = old;
    if (value != nullptr) {
      ::setenv("PML_SIM_BACKEND", value, 1);
    } else {
      ::unsetenv("PML_SIM_BACKEND");
    }
  }
  ~ScopedBackendEnv() {
    if (saved_.has_value()) {
      ::setenv("PML_SIM_BACKEND", saved_->c_str(), 1);
    } else {
      ::unsetenv("PML_SIM_BACKEND");
    }
  }
  ScopedBackendEnv(const ScopedBackendEnv&) = delete;
  ScopedBackendEnv& operator=(const ScopedBackendEnv&) = delete;

 private:
  std::optional<std::string> saved_;
};

}  // namespace pml::testutil
