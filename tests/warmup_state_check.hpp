#pragma once
// Zero-delay vs event-engine warm-up, word for word, on one lane width.
//
// The activity replay warms each batch up on the zero-delay
// sim::BatchSimulatorT and hands the settled lane state to the event
// engine (pml/core/activity.hpp).  warmup_state_mismatches<L> checks that
// hand-over through the engines' public API: from reset, both engines
// run one inference on the same rows (lane l on rows[l % rows.size()]),
// then their exported states are compared; an event engine that adopted
// the zero-delay state must then count the next inference exactly as the
// event engine that warmed itself up.
//
// The AVX2 / AVX-512 instantiations live in their own TUs
// (warmup_state_check_avx*.cpp), compiled with the matching -m flag like
// the library's backend TUs, so the test binary runs on any x86-64.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "pml/cells/library.hpp"
#include "pml/core/verify.hpp"
#include "pml/netlist/module.hpp"
#include "pml/sim/batch_event_sim.hpp"
#include "pml/sim/batch_sim.hpp"
#include "pml/sim/levelize.hpp"

namespace pml::testutil {

using Rows = std::vector<std::vector<std::int64_t>>;

/// Run one inference on `rows[first + l % count]` in every lane l.
template <class Sim>
void run_inference(Sim& sim, const std::vector<const netlist::Port*>& ports,
                   const Rows& rows, std::size_t first, std::size_t count,
                   int cycles, bool sequential) {
  std::uint64_t lane_values[Sim::kLanes];
  for (std::size_t j = 0; j < ports.size(); ++j) {
    for (std::size_t lane = 0; lane < Sim::kLanes; ++lane) {
      lane_values[lane] =
          static_cast<std::uint64_t>(rows[first + lane % count][j]);
    }
    sim.set_port(*ports[j], lane_values, Sim::kLanes);
  }
  if (sequential) {
    for (int c = 0; c < cycles; ++c) sim.step();
  } else if constexpr (requires { sim.settle(); }) {
    sim.settle();
  } else {
    sim.propagate();
  }
}

/// Words that differ between the two warm-ups' exported states, plus
/// mismatches of the next (counted) inference; 0 = identical.  `rows`
/// holds 2 x warm rows: the warm-up runs on the first half, the counted
/// inference on the second.
template <class L>
std::size_t warmup_state_mismatches(const netlist::Module& module,
                                    const cells::CellLibrary& lib,
                                    int cycles, const Rows& rows) {
  const auto lv = sim::levelize_shared(module);
  const bool sequential = !lv->dffs.empty();
  const std::vector<const netlist::Port*> ports =
      core::feature_ports(module, rows.front().size());
  const std::size_t half = rows.size() / 2;

  sim::BatchSimulatorT<L> zsim(module, lv);
  sim::BatchEventSimulatorT<L> warmed(module, lib, 0.02, lv);
  sim::BatchEventSimulatorT<L> adopted(module, lib, 0.02, lv);
  run_inference(zsim, ports, rows, 0, half, cycles, sequential);
  run_inference(warmed, ports, rows, 0, half, cycles, sequential);

  std::vector<std::uint64_t> zs(zsim.state_words());
  std::vector<std::uint64_t> es(warmed.state_words());
  zsim.export_state(zs.data());
  warmed.export_state(es.data());
  std::size_t diff = zs.size() == es.size() ? 0 : 1;
  for (std::size_t i = 0; i < std::min(zs.size(), es.size()); ++i) {
    diff += zs[i] != es[i];
  }

  adopted.import_state(zsim);
  warmed.clear_activity();
  adopted.clear_activity();
  run_inference(warmed, ports, rows, half, half, cycles, sequential);
  run_inference(adopted, ports, rows, half, half, cycles, sequential);
  diff += warmed.activity().net_toggles != adopted.activity().net_toggles;
  diff += warmed.activity().net_functional !=
          adopted.activity().net_functional;
  diff += warmed.activity().dff_clock_events !=
          adopted.activity().dff_clock_events;
  warmed.export_state(es.data());
  adopted.export_state(zs.data());
  diff += zs != es;
  return diff;
}

std::size_t warmup_state_mismatches_avx2(const netlist::Module& module,
                                         const cells::CellLibrary& lib,
                                         int cycles, const Rows& rows);
std::size_t warmup_state_mismatches_avx512(const netlist::Module& module,
                                           const cells::CellLibrary& lib,
                                           int cycles, const Rows& rows);

}  // namespace pml::testutil
