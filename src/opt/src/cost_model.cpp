#include "pml/opt/cost_model.hpp"

#include <stdexcept>

#include "pml/power/power.hpp"
#include "pml/sim/batch_event_sim.hpp"

namespace pml::opt {

double CellCountCost::cost(const netlist::Module& m) const {
  return static_cast<double>(m.cells().size());
}

SwitchingEnergyCost::SwitchingEnergyCost(const cells::CellLibrary& lib,
                                         ProbeWorkload probe,
                                         double time_quantum_ms)
    : lib_(lib), probe_(std::move(probe)), time_quantum_ms_(time_quantum_ms) {
  if (probe_.samples.empty()) {
    throw std::invalid_argument("SwitchingEnergyCost: empty probe workload");
  }
}

double SwitchingEnergyCost::cost(const netlist::Module& m) const {
  constexpr std::size_t kLanes = sim::BatchEventSimulator::kLanes;
  const auto& inputs = m.input_ports();
  const std::size_t lanes = std::min(probe_.samples.size(), kLanes);

  sim::BatchEventSimulator sim(m, lib_, time_quantum_ms_);
  std::uint64_t count_mask[sim::BatchEventSimulator::kChunks];
  sim::prefix_lane_mask(lanes, count_mask, sim::BatchEventSimulator::kChunks);
  sim.set_count_mask_chunks(count_mask);
  std::uint64_t lane_values[kLanes] = {};
  for (std::size_t p = 0; p < inputs.size(); ++p) {
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      if (probe_.samples[lane].size() != inputs.size()) {
        throw std::invalid_argument(
            "SwitchingEnergyCost: probe sample width != input port count");
      }
      lane_values[lane] = probe_.samples[lane][p];
    }
    sim.set_port(inputs[p], lane_values, lanes);
  }
  // One inference per lane from the power-on state: enough signal to rank
  // candidates, cheap enough to probe after every pass application.
  if (probe_.cycles_per_inference <= 0) {
    sim.settle();
  } else {
    for (int c = 0; c < probe_.cycles_per_inference; ++c) sim.step();
  }
  return power::switching_energy_nj(m, lib_, sim.activity(),
                                    sim.levelization());
}

}  // namespace pml::opt
