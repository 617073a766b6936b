#pragma once
// The waveform engine against the scalar oracle, on one lane width.
//
// waveform_mismatches<L> drives a sim::BatchEventSimulatorT<L> and one
// scalar sim::EventSimulator per driven lane through the same rounds:
// every round stages each input port twice (a decoy word, then the real
// row, so staging order matters), then settles or clocks.  The count
// mask is ragged (only `driven` < kLanes lanes carry rows, and every
// fifth of those is left uncounted), so the engine's ActivityStats must
// equal the scalar stats summed over the counted lanes alone, while the
// end state of every net must match in every driven lane.
//
// A net with several drivers is outside the per-lane contract: a
// driver's evaluation sets every lane, also lanes where only the other
// driver moved.  `broadcast` drives all kLanes lanes with the same rows,
// where the engine's last-event-wins rule must agree with the oracle's.
//
// The AVX2 / AVX-512 instantiations live in their own TUs
// (waveform_check_avx*.cpp), compiled with the matching -m flag like the
// library's backend TUs, so the test binary runs on any x86-64.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "design_test_util.hpp"
#include "pml/cells/library.hpp"
#include "pml/netlist/module.hpp"
#include "pml/sim/batch_event_sim.hpp"
#include "pml/sim/event_sim.hpp"
#include "pml/sim/levelize.hpp"

namespace pml::testutil {

/// Mismatching words and counters between the engine and the oracle;
/// 0 = identical.  `cycles` <= 0 settles once per round.
template <class L>
std::size_t waveform_mismatches(const netlist::Module& module,
                                const cells::CellLibrary& lib, int cycles,
                                int rounds, std::uint64_t seed,
                                bool broadcast = false) {
  using Engine = sim::BatchEventSimulatorT<L>;
  constexpr std::size_t kLanes = Engine::kLanes;
  const std::size_t driven = broadcast ? kLanes : kLanes == 64 ? 61 : 70;
  const double quantum = 0.02;
  const auto lv = sim::levelize_shared(module);
  const auto counted = [](std::size_t lane) { return lane % 5 != 3; };

  Engine batch(module, lib, quantum, lv);
  std::uint64_t mask[Engine::kChunks] = {};
  for (std::size_t lane = 0; lane < driven; ++lane) {
    if (counted(lane)) sim::insert_lane(mask, lane, true);
  }
  batch.set_count_mask_chunks(mask);
  std::vector<std::unique_ptr<sim::EventSimulator>> scalar;
  for (std::size_t lane = 0; lane < driven; ++lane) {
    scalar.push_back(
        std::make_unique<sim::EventSimulator>(module, lib, quantum, lv));
  }

  std::uint64_t s = seed | 1;
  std::vector<std::uint64_t> decoy(kLanes);
  std::vector<std::uint64_t> real(kLanes);
  for (int r = 0; r < rounds; ++r) {
    for (const netlist::Port& port : module.input_ports()) {
      const std::uint64_t width_mask =
          port.nets.size() >= 64 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << port.nets.size()) - 1;
      for (std::size_t lane = 0; lane < driven; ++lane) {
        const bool copy = broadcast && lane > 0;
        decoy[lane] = copy ? decoy[0] : xorshift(s) & width_mask;
        real[lane] = copy ? real[0] : xorshift(s) & width_mask;
      }
      batch.set_port(port, decoy.data(), driven);
      batch.set_port(port, real.data(), driven);
      for (std::size_t lane = 0; lane < driven; ++lane) {
        scalar[lane]->set_port(port, decoy[lane]);
        scalar[lane]->set_port(port, real[lane]);
      }
    }
    if (cycles <= 0) {
      batch.settle();
      for (const auto& es : scalar) es->settle();
    } else {
      for (int c = 0; c < cycles; ++c) {
        batch.step();
        for (const auto& es : scalar) es->step();
      }
    }
  }

  std::size_t diff = 0;
  sim::ActivityStats sum;
  sum.net_toggles.assign(module.num_nets(), 0);
  sum.net_functional.assign(module.num_nets(), 0);
  for (std::size_t lane = 0; lane < driven; ++lane) {
    for (netlist::NetId n = 0; n < module.num_nets(); ++n) {
      diff += batch.net(n, lane) != scalar[lane]->net(n);
    }
    if (counted(lane)) sum.accumulate(scalar[lane]->activity());
  }
  const sim::ActivityStats& got = batch.activity();
  for (std::size_t n = 0; n < module.num_nets(); ++n) {
    diff += got.net_toggles[n] != sum.net_toggles[n];
    diff += got.net_functional[n] != sum.net_functional[n];
  }
  diff += got.dff_clock_events != sum.dff_clock_events;
  diff += got.cycles != sum.cycles;
  return diff;
}

std::size_t waveform_mismatches_avx2(const netlist::Module& module,
                                     const cells::CellLibrary& lib,
                                     int cycles, int rounds,
                                     std::uint64_t seed, bool broadcast);
std::size_t waveform_mismatches_avx512(const netlist::Module& module,
                                       const cells::CellLibrary& lib,
                                       int cycles, int rounds,
                                       std::uint64_t seed, bool broadcast);

}  // namespace pml::testutil
