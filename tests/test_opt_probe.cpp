// The optimizer's switching-energy probe prices every candidate exactly
// as one event engine replaying all of the probe's clock cycles would.
//
// SwitchingEnergyCost splits a sequential probe's cycles into segments run
// side by side on the task pool; each later segment starts from a
// zero-delay warm-up snapshot and a seam check guards the join (see
// pml/opt/cost_model.hpp).  These differentials prove:
//  - cost() equals a test-local one-engine, all-cycles replay bit for bit
//    on every generator and on random DFF-bearing netlists, whether or not
//    the probe splits;
//  - a cost-driven ("balanced") run takes the identical accept/reject
//    trace under either model;
//  - a free-running toggle flop splits with no fallback (the warm-up
//    replays the whole history, so it reaches the same flop state), and
//    a netlist the two engines settle differently on takes the seam
//    fallback and still matches.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "design_test_util.hpp"
#include "pml/arch/mlp_circuit.hpp"
#include "pml/arch/parallel_svm.hpp"
#include "pml/arch/sequential_mlp.hpp"
#include "pml/arch/sequential_svm.hpp"
#include "pml/cells/library.hpp"
#include "pml/netlist/module.hpp"
#include "pml/obs/metrics.hpp"
#include "pml/opt/cost_model.hpp"
#include "pml/opt/optimizer.hpp"
#include "pml/power/power.hpp"
#include "pml/sim/batch_event_sim.hpp"

namespace pml::opt {
namespace {

using netlist::CellType;
using netlist::Module;
using netlist::NetId;
using testutil::xorshift;

constexpr double kQuantum = 0.02;

const cells::CellLibrary& library() {
  static const cells::CellLibrary lib = cells::CellLibrary::egfet();
  return lib;
}

/// The reference: one event engine, one inference per lane from power-on,
/// every cycle counted in one pass.
class OneEngineCost final : public CostModel {
 public:
  explicit OneEngineCost(ProbeWorkload probe) : probe_(std::move(probe)) {}

  [[nodiscard]] double cost(const Module& m) const override {
    constexpr std::size_t kLanes = sim::BatchEventSimulator::kLanes;
    const std::size_t lanes = std::min(probe_.samples.size(), kLanes);
    sim::BatchEventSimulator sim(m, library(), kQuantum);
    std::uint64_t mask[sim::BatchEventSimulator::kChunks];
    sim::prefix_lane_mask(lanes, mask, sim::BatchEventSimulator::kChunks);
    sim.set_count_mask_chunks(mask);
    std::uint64_t values[kLanes] = {};
    for (std::size_t p = 0; p < m.input_ports().size(); ++p) {
      for (std::size_t l = 0; l < lanes; ++l) values[l] = probe_.samples[l][p];
      sim.set_port(m.input_ports()[p], values, lanes);
    }
    if (probe_.cycles_per_inference <= 0) {
      sim.settle();
    } else {
      for (int c = 0; c < probe_.cycles_per_inference; ++c) sim.step();
    }
    return power::switching_energy_nj(m, library(), sim.activity(),
                                      sim.levelization());
  }

 private:
  ProbeWorkload probe_;
};

ProbeWorkload random_probe(const Module& m, int cycles, std::size_t samples,
                           std::uint64_t seed) {
  ProbeWorkload probe;
  probe.cycles_per_inference = cycles;
  std::uint64_t s = seed | 1;
  for (std::size_t i = 0; i < samples; ++i) {
    std::vector<std::uint64_t> row;
    for (const auto& port : m.input_ports()) {
      row.push_back(xorshift(s) & ((std::uint64_t{1} << port.nets.size()) - 1));
    }
    probe.samples.push_back(std::move(row));
  }
  return probe;
}

struct Design {
  std::string name;
  Module module;
  int cycles = 1;
};

/// Every generator plus random DFF-bearing netlists.  Six classes give
/// the sequential SVM six cycles, and the random netlists are probed over
/// five, so both split.
std::vector<Design> designs() {
  std::vector<Design> out;
  const auto q = testutil::random_svm(6, 2, 11);
  const auto mlp = testutil::random_mlp(2, 3, 3, 13);
  {
    auto c = arch::build_sequential_svm(q);
    out.push_back({"sequential_svm", std::move(c.module),
                   c.cycles_per_inference});
  }
  {
    auto c = arch::build_parallel_svm(q);
    out.push_back(
        {"parallel_svm", std::move(c.module), c.cycles_per_inference});
  }
  {
    auto c = arch::build_mlp_circuit(mlp);
    out.push_back({"mlp", std::move(c.module), c.cycles_per_inference});
  }
  {
    auto c = arch::build_sequential_mlp(mlp);
    out.push_back(
        {"sequential_mlp", std::move(c.module), c.cycles_per_inference});
  }
  for (const std::uint64_t seed : {3u, 7u}) {
    out.push_back({std::string("random_dff_").append(std::to_string(seed)),
                   testutil::random_dff_module(seed, 2, 40, 4), 5});
  }
  out.push_back({"toggle_flop", testutil::toggle_flop_module(), 5});
  return out;
}

/// Segments and seam fallbacks the probes of `fn` ran, as counter deltas.
template <class Fn>
std::pair<std::uint64_t, std::uint64_t> probe_schedule(Fn&& fn) {
  const obs::MetricsSnapshot before = obs::snapshot_metrics();
  fn();
  const auto delta = obs::diff_metrics(before, obs::snapshot_metrics());
  return {delta.counter_value("opt.probe.segments"),
          delta.counter_value("opt.probe.seam_fallbacks")};
}

std::uint64_t expected_segments(int cycles) {
  if (cycles <= 0) return 1;
  return std::min(static_cast<std::size_t>(cycles), kProbeSegments);
}

TEST(ProbeSplit, CostEqualsOneEngineReplayBitForBit) {
  for (const Design& d : designs()) {
    SCOPED_TRACE(d.name);
    // 48 samples as in core::kCostProbeSamples, and a ragged 5.
    for (const std::size_t samples : {48u, 5u}) {
      SCOPED_TRACE(samples);
      const ProbeWorkload probe = random_probe(d.module, d.cycles, samples, 19);
      const SwitchingEnergyCost split(library(), probe, kQuantum);
      const OneEngineCost reference(probe);
      double got = 0.0;
      const auto [segments, fallbacks] =
          probe_schedule([&] { got = split.cost(d.module); });
      EXPECT_EQ(got, reference.cost(d.module));
      EXPECT_EQ(segments, expected_segments(d.cycles));
      EXPECT_EQ(fallbacks, 0u);
      // A second probe on the rebound engines prices the same.
      EXPECT_EQ(split.cost(d.module), got);
    }
  }
}

TEST(ProbeSplit, BalancedRunTakesTheSameTrace) {
  for (const Design& d : designs()) {
    SCOPED_TRACE(d.name);
    const ProbeWorkload probe = random_probe(d.module, d.cycles, 48, 23);
    const SwitchingEnergyCost split(library(), probe, kQuantum);
    const OneEngineCost reference(probe);
    Module a = d.module;
    Module b = d.module;
    const OptReport ra = optimize(a, {.flow = "balanced"}, &split);
    const OptReport rb = optimize(b, {.flow = "balanced"}, &reference);
    EXPECT_EQ(ra.cost_before, rb.cost_before);
    EXPECT_EQ(ra.cost_after, rb.cost_after);
    EXPECT_EQ(ra.rejected, rb.rejected);
    EXPECT_EQ(ra.deltas.size(), rb.deltas.size());
    EXPECT_EQ(ra.cost_probes, rb.cost_probes);
    ASSERT_EQ(a.cells().size(), b.cells().size());
    for (std::size_t i = 0; i < a.cells().size(); ++i) {
      EXPECT_EQ(a.cells()[i].type, b.cells()[i].type);
      EXPECT_EQ(a.cells()[i].out, b.cells()[i].out);
    }
  }
}

/// Net `d` has two drivers — outside the one-driver contract the engines
/// share: BUF(INV(INV(x))) = x and the slower BUF(XNOR(x, 0)) = NOT x.
/// The zero-delay engine settles d to whichever driver comes last in the
/// levelized order, here the INV path's x; the event engine ends with the
/// slower path's NOT x wherever x changed.  (Should a levelization change
/// reorder the two drivers, both engines end with NOT x and the fallback
/// count below reads 0: swap the drive_net calls.)  A free-running toggle
/// flop keeps the design sequential.
Module two_driver_module() {
  Module m("two_driver");
  const NetId x = m.add_input_port("x0", 1)[0];
  const NetId d = m.new_net();
  m.drive_net(d, m.add_gate_raw(CellType::kInv,
                                m.add_gate_raw(CellType::kInv, x)));
  m.drive_net(d, m.add_gate_raw(CellType::kXnor2, x, netlist::kConst0));
  const NetId t = m.new_net();
  const NetId q = m.dff(t);
  m.drive_net(t, m.inv(q));
  m.add_output_port("y", {m.and2(d, q)});
  return m;
}

TEST(ProbeSplit, SeamMismatchFallsBackToOneEngine) {
  const Module m = two_driver_module();
  const ProbeWorkload probe = random_probe(m, 4, 48, 29);
  const SwitchingEnergyCost split(library(), probe, kQuantum);
  double got = 0.0;
  const auto [segments, fallbacks] =
      probe_schedule([&] { got = split.cost(m); });
  EXPECT_EQ(fallbacks, 1u);
  // The split segments, then the one unsplit re-run.
  EXPECT_EQ(segments, expected_segments(4) + 1);
  EXPECT_EQ(got, OneEngineCost(probe).cost(m));
}

TEST(ProbeSplit, RejectsBadProbes) {
  EXPECT_THROW(SwitchingEnergyCost(library(), ProbeWorkload{}),
               std::invalid_argument);
  const Module m = testutil::toggle_flop_module();
  ProbeWorkload probe = random_probe(m, 2, 4, 31);
  probe.samples[2].push_back(1);
  const SwitchingEnergyCost cost(library(), probe);
  EXPECT_THROW((void)cost.cost(m), std::invalid_argument);
}

}  // namespace
}  // namespace pml::opt
