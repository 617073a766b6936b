// The LaneAvx512 instantiation of waveform_check.hpp, compiled with the
// matching -m flag when the compiler supports it (see CMakeLists.txt);
// the test calls it only when the CPU has the extension.
#include "waveform_check.hpp"

namespace pml::testutil {

std::size_t waveform_mismatches_avx512(const netlist::Module& module,
                                       const cells::CellLibrary& lib,
                                       int cycles, int rounds,
                                       std::uint64_t seed, bool broadcast) {
  return waveform_mismatches<sim::LaneAvx512>(module, lib, cycles, rounds, seed,
                                              broadcast);
}

}  // namespace pml::testutil
