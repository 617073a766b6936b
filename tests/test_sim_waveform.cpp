// The levelized waveform engine (sim::BatchEventSimulator, 64 lanes):
//  - differential suite: random DFF netlists and the sequential/parallel
//    SVM, MLP and sequential-MLP generators, with ragged count masks and
//    every input staged twice per round; the engine's ActivityStats and
//    end state equal the scalar EventSimulator oracle's, summed over the
//    counted lanes; and nets with several drivers, under a stimulus every
//    lane shares;
//  - its counters: one lane word per cell per distinct input-change tick,
//    one event per evaluation plus the seeds;
//  - its list memory: the arena stays within twice the live frontier on
//    the largest Table I SVM baseline replay;
//  - the inline popcount under every lane word.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "design_test_util.hpp"
#include "pml/arch/mlp_circuit.hpp"
#include "pml/arch/parallel_svm.hpp"
#include "pml/arch/sequential_mlp.hpp"
#include "pml/arch/sequential_svm.hpp"
#include "pml/core/activity.hpp"
#include "pml/core/baselines.hpp"
#include "pml/core/flow.hpp"
#include "pml/ml/scaler.hpp"
#include "pml/ml/synthetic_datasets.hpp"
#include "pml/obs/metrics.hpp"
#include "pml/sim/batch_event_sim.hpp"
#include "pml/sim/event_sim.hpp"

namespace pml::sim {
namespace {

using netlist::CellType;
using netlist::Module;
using netlist::NetId;

const cells::CellLibrary& library() {
  static const cells::CellLibrary lib = cells::CellLibrary::egfet();
  return lib;
}

struct Design {
  std::string name;
  Module module;
  int cycles = 0;  ///< per round; 0 settles
  bool broadcast = false;  ///< every lane gets the same rows
};

/// Net `d` has two drivers of different path delay, and a DFF's Q is
/// also driven by a cell: the several-driver rule (last event wins)
/// against the scalar oracle, under a stimulus every lane shares.
Module several_driver_module() {
  Module m("several");
  const auto x = m.add_input_port("x0", 2);
  const NetId d = m.new_net();
  m.drive_net(d, m.add_gate_raw(CellType::kInv,
                                m.add_gate_raw(CellType::kInv, x[0])));
  m.drive_net(d, m.add_gate_raw(CellType::kXnor2, x[0], netlist::kConst0));
  const NetId q = m.dff(m.xor2(d, x[1]));
  m.drive_net(q, m.and2(x[0], x[1]));
  m.add_output_port("y", {m.and2(d, q), m.or2(x[1], q)});
  return m;
}

std::vector<Design> designs() {
  std::vector<Design> out;
  const auto q = testutil::random_svm(4, 3, 41);
  const auto mlp = testutil::random_mlp(3, 3, 3, 43);
  // The parallel MLP's glitch storms make the scalar oracle slow: a
  // smaller net keeps the suite to seconds.
  const auto small_mlp = testutil::random_mlp(2, 2, 3, 43);
  {
    auto c = arch::build_sequential_svm(q);
    out.push_back({"sequential_svm", std::move(c.module),
                   c.cycles_per_inference});
  }
  out.push_back({"parallel_svm", arch::build_parallel_svm(q).module, 0});
  out.push_back({"mlp", arch::build_mlp_circuit(small_mlp).module, 0});
  {
    auto c = arch::build_sequential_mlp(mlp);
    out.push_back({"sequential_mlp", std::move(c.module),
                   c.cycles_per_inference});
  }
  for (const std::uint64_t seed : {3u, 5u, 8u, 13u}) {
    out.push_back({std::string("random_dff_").append(std::to_string(seed)),
                   testutil::random_dff_module(seed, 2, 60, 5), 2});
  }
  out.push_back({"several_drivers", several_driver_module(), 2, true});
  return out;
}

/// The engine against the scalar oracle: one sim::EventSimulator per
/// driven lane runs the same rounds.  Every round stages each input port
/// twice (a decoy word, then the real row, so staging order matters),
/// then settles (`cycles` <= 0) or clocks.  The count mask is ragged
/// (only 61 of the 64 lanes carry rows, and every fifth of those is left
/// uncounted), so the engine's ActivityStats must equal the scalar stats
/// summed over the counted lanes alone, while the end state of every net
/// must match in every driven lane.
///
/// A net with several drivers is outside the per-lane contract: a
/// driver's evaluation sets every lane, also lanes where only the other
/// driver moved.  `broadcast` drives all 64 lanes with the same rows,
/// where the engine's last-event-wins rule must agree with the oracle's.
///
/// Returns the mismatching words and counters; 0 = identical.
std::size_t waveform_mismatches(const Module& module, int cycles, int rounds,
                                std::uint64_t seed, bool broadcast) {
  constexpr std::size_t kLanes = BatchEventSimulator::kLanes;
  const std::size_t driven = broadcast ? kLanes : 61;
  const double quantum = 0.02;
  const auto lv = levelize_shared(module);
  const auto counted = [](std::size_t lane) { return lane % 5 != 3; };

  BatchEventSimulator batch(module, library(), quantum, lv);
  std::uint64_t mask = 0;
  for (std::size_t lane = 0; lane < driven; ++lane) {
    if (counted(lane)) insert_lane(&mask, lane, true);
  }
  batch.set_count_mask_chunks(&mask);
  std::vector<std::unique_ptr<EventSimulator>> scalar;
  for (std::size_t lane = 0; lane < driven; ++lane) {
    scalar.push_back(
        std::make_unique<EventSimulator>(module, library(), quantum, lv));
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
        decoy[lane] = copy ? decoy[0] : testutil::xorshift(s) & width_mask;
        real[lane] = copy ? real[0] : testutil::xorshift(s) & width_mask;
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
  ActivityStats sum;
  sum.net_toggles.assign(module.num_nets(), 0);
  sum.net_functional.assign(module.num_nets(), 0);
  for (std::size_t lane = 0; lane < driven; ++lane) {
    for (NetId n = 0; n < module.num_nets(); ++n) {
      diff += batch.net(n, lane) != scalar[lane]->net(n);
    }
    if (counted(lane)) sum.accumulate(scalar[lane]->activity());
  }
  const ActivityStats& got = batch.activity();
  for (std::size_t n = 0; n < module.num_nets(); ++n) {
    diff += got.net_toggles[n] != sum.net_toggles[n];
    diff += got.net_functional[n] != sum.net_functional[n];
  }
  diff += got.dff_clock_events != sum.dff_clock_events;
  diff += got.cycles != sum.cycles;
  return diff;
}

TEST(Waveform, MatchesScalarOracle) {
  for (const Design& d : designs()) {
    SCOPED_TRACE(d.name);
    EXPECT_EQ(waveform_mismatches(d.module, d.cycles, 3, 101, d.broadcast),
              0u);
  }
}

TEST(Waveform, CountsOneEvaluationPerCellPerInputChangeTick) {
  // y = XOR(a, INV^10(a)): an edge on a evaluates each inverter once and
  // the XOR twice (when a changes, and when the chain's end does).
  Module m;
  const NetId a = m.add_input_port("a", 1)[0];
  NetId n = a;
  for (int i = 0; i < 10; ++i) n = m.add_gate_raw(CellType::kInv, n);
  m.add_output_port("y", {m.add_gate_raw(CellType::kXor2, a, n)});
  BatchEventSimulator sim(m, library(), 0.01);
  const std::uint64_t high = ~std::uint64_t{0};
  const obs::MetricsSnapshot before = obs::snapshot_metrics();
  sim.set_net_chunks(a, &high);
  sim.settle();
  // A no-op staged write is an event but wakes nothing.
  sim.set_net_chunks(a, &high);
  sim.settle();
  const auto delta = obs::diff_metrics(before, obs::snapshot_metrics());
  EXPECT_EQ(delta.counter_value("sim.batch_event.lane_words"), 12u);
  EXPECT_EQ(delta.counter_value("sim.batch_event.events"), 14u);
}

TEST(Waveform, ArenaStaysWithinTwiceTheLiveFrontier) {
  // SVM [2] on Cardio, the largest Table I SVM baseline: its deep adder
  // trees hold long glitch trains until the vote reads them.
  const ml::Dataset raw =
      ml::make_uci_like(ml::UciProfile::kCardio, ml::kDefaultDataSeed);
  const ml::Split split =
      ml::stratified_split(raw, 0.8, ml::kDefaultDataSeed ^ 0x5eed);
  ml::MinMaxScaler scaler;
  scaler.fit(split.train);
  const ml::Dataset train = scaler.transform(split.train);
  const ml::Dataset test = scaler.transform(split.test);
  const core::ParallelSvmBaselineOptions options;
  const auto q = quant::quantize_svm(
      core::train_parallel_svm_baseline(train, options), options.input_bits,
      options.weight_bits);
  const auto circuit = arch::build_parallel_svm(q);
  const core::CircuitWorkload wl = core::make_svm_workload(q, test);
  const auto ports =
      core::feature_ports(circuit.module, wl.feature_codes[0].size());

  BatchEventSimulator sim(circuit.module, library(), core::kTimeQuantumMs);
  std::uint64_t values[BatchEventSimulator::kLanes];
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t j = 0; j < ports.size(); ++j) {
      for (std::size_t l = 0; l < BatchEventSimulator::kLanes; ++l) {
        values[l] = static_cast<std::uint64_t>(
            wl.feature_codes[(r * 64 + l) % wl.feature_codes.size()][j]);
      }
      sim.set_port(*ports[j], values, BatchEventSimulator::kLanes);
    }
    sim.settle();
  }
  EXPECT_GT(sim.live_high_water(), 1000u);
  EXPECT_LE(sim.arena_high_water(), 2 * sim.live_high_water());
}

TEST(LanePopcount, MatchesStdPopcount) {
  std::vector<std::uint64_t> words = {0, ~std::uint64_t{0}};
  for (int b = 0; b < 64; ++b) words.push_back(std::uint64_t{1} << b);
  std::uint64_t s = 12345;
  for (int i = 0; i < 1000; ++i) words.push_back(testutil::xorshift(s));
  for (const std::uint64_t w : words) {
    EXPECT_EQ(popcount64(w), static_cast<std::uint64_t>(std::popcount(w)))
        << std::hex << w;
    EXPECT_EQ(LaneU64::popcount(w), popcount64(w));
  }
}

}  // namespace
}  // namespace pml::sim
