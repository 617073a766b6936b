// The LaneAvx512 instantiation of warmup_state_check.hpp, compiled with the
// matching -m flag when the compiler supports it (see CMakeLists.txt);
// the test calls it only when the CPU has the extension.
#include "warmup_state_check.hpp"

namespace pml::testutil {

std::size_t warmup_state_mismatches_avx512(const netlist::Module& module,
                                           const cells::CellLibrary& lib,
                                           int cycles, const Rows& rows) {
  return warmup_state_mismatches<sim::LaneAvx512>(module, lib, cycles, rows);
}

}  // namespace pml::testutil
