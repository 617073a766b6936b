#include "pml/opt/cost_model.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "pml/obs/metrics.hpp"
#include "pml/obs/trace.hpp"
#include "pml/power/power.hpp"
#include "pml/sim/batch_event_sim.hpp"
#include "pml/sim/batch_sim.hpp"
#include "pml/sim/levelize.hpp"
#include "pml/util/task_pool.hpp"

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
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    if (probe_.samples[lane].size() != inputs.size()) {
      throw std::invalid_argument(
          "SwitchingEnergyCost: probe sample width != input port count");
    }
  }

  const auto lv = sim::levelize_shared(m);

  // Lane l of either engine is driven with probe sample l.
  const auto drive = [&](auto& sim) {
    std::uint64_t lane_values[kLanes] = {};
    for (std::size_t p = 0; p < inputs.size(); ++p) {
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        lane_values[lane] = probe_.samples[lane][p];
      }
      sim.set_port(inputs[p], lane_values, lanes);
    }
  };
  std::uint64_t count_mask[sim::BatchEventSimulator::kChunks];
  sim::prefix_lane_mask(lanes, count_mask, sim::BatchEventSimulator::kChunks);
  const std::size_t words = sim::BatchEventSimulator::state_words(m, *lv);

  // Segment k counts cycles [start(k), start(k + 1)) of one inference per
  // lane from power-on (a combinational probe: one settle, unsplit).
  struct Segment {
    sim::BatchEventSimulator count;
    std::vector<std::uint64_t> warm_state;  ///< state at the segment start
    std::vector<std::uint64_t> end_state;   ///< after the counted cycles
  };
  std::array<Segment, kProbeSegments> segments;
  const int cycles = probe_.cycles_per_inference;
  const std::size_t num_segments =
      cycles <= 0 ? 1
                  : std::min(static_cast<std::size_t>(cycles), kProbeSegments);
  const auto start = [&](std::size_t k) {
    return static_cast<int>(k * static_cast<std::size_t>(std::max(cycles, 0)) /
                            num_segments);
  };

  // A later segment starts from the state after the cycles before it:
  // one zero-delay pass from reset on the probe rows snapshots each start.
  if (num_segments > 1) {
    sim::BatchSimulator warm(m, lv);
    drive(warm);
    for (std::size_t k = 1; k < num_segments; ++k) {
      for (int c = start(k - 1); c < start(k); ++c) warm.step();
      segments[k].warm_state.resize(words);
      warm.export_state(segments[k].warm_state.data());
    }
  }
  // Engines are bound and primed here, so the pool workers only simulate.
  const auto prepare = [&](Segment& seg, bool from_power_on) {
    seg.count.rebind(m, lib_, time_quantum_ms_, lv);
    seg.count.set_count_mask_chunks(count_mask);
    if (from_power_on) {
      drive(seg.count);
    } else {
      seg.count.import_state(seg.warm_state.data());
    }
  };
  const auto count = [&](Segment& seg, int c0, int c1, bool keep_end) {
    PML_OBS_COUNT("opt.probe.segments", 1);
    if (c1 == 0) {
      seg.count.settle();
    } else {
      for (int c = c0; c < c1; ++c) seg.count.step();
    }
    if (keep_end) {
      seg.end_state.resize(words);
      seg.count.export_state(seg.end_state.data());
    }
  };
  for (std::size_t k = 0; k < num_segments; ++k) {
    prepare(segments[k], k == 0);
  }
  util::TaskPool::instance().run_group(
      num_segments, "opt.probe.worker", [&](std::size_t k) {
        PML_OBS_SPAN("opt.probe.worker");
        count(segments[k], start(k), start(k + 1), k + 1 < num_segments);
      });

  std::size_t used = num_segments;
  for (std::size_t k = 1; k < num_segments; ++k) {
    if (segments[k - 1].end_state != segments[k].warm_state) {
      // The zero-delay warm-up did not reproduce the event engine's
      // state: count every cycle on one engine instead.
      PML_OBS_COUNT("opt.probe.seam_fallbacks", 1);
      prepare(segments[0], true);
      count(segments[0], 0, cycles, false);
      used = 1;
      break;
    }
  }
  sim::ActivityStats total = segments[0].count.activity();
  for (std::size_t k = 1; k < used; ++k) {
    total.accumulate(segments[k].count.activity());
  }
  return power::switching_energy_nj(m, lib_, total, *lv);
}

}  // namespace pml::opt
