// The class lives in the header as a template on the LaneWord trait and
// overlay (see batch_sim.hpp); this TU provides the always-built 64-lane
// scalar instantiations (toggle-counting and stuck-at) so ordinary call
// sites never pay template-instantiation compile time.  The AVX2/AVX-512
// instantiations are created only inside
// src/core/src/backends/backend_avx2.cpp / backend_avx512.cpp, which are
// compiled with the matching -m flags.
#include "pml/sim/batch_sim.hpp"

namespace pml::sim {

template class BatchSimulatorT<LaneU64>;
template class BatchSimulatorT<LaneU64, BatchOverlay::kStuckAt>;

}  // namespace pml::sim
