// The class lives in the header as a template on the LaneWord trait
// (see batch_event_sim.hpp); this TU provides its one instantiation, on
// 64-lane u64 words.
#include "pml/sim/batch_event_sim.hpp"

namespace pml::sim {

template class BatchEventSimulatorT<LaneU64>;

}  // namespace pml::sim
