// BatchFaultSimulator: randomized lane-by-lane bit-identity against the
// scalar CycleSimulator + force_net oracle on generated sequential-SVM and
// parallel-SVM circuits and on random netlists; the reserved fault-free
// lane-0 invariant; and the core::run_fault_campaign driver — ragged
// (<63 variant) batches, exact agreement with a per-variant scalar replay,
// thread-count invariance, the accuracy-vs-fault-count curve helper, and
// the deterministic fault-set generators.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "pml/arch/parallel_svm.hpp"
#include "pml/arch/sequential_svm.hpp"
#include "pml/core/fault_campaign.hpp"
#include "pml/sim/batch_sim.hpp"
#include "pml/sim/cycle_sim.hpp"

namespace pml::sim {
namespace {

using netlist::CellType;
using netlist::Module;
using netlist::NetId;
using quant::QuantizedClassifier;
using quant::QuantizedSvm;

constexpr std::size_t kLanes = BatchFaultSimulator::kLanes;

// --- deterministic generators (same style as test_sim_batch.cpp) ------------

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

QuantizedSvm random_svm(int classes, int features, int input_bits,
                        int weight_bits, std::uint64_t seed) {
  QuantizedSvm q;
  q.strategy = ml::MulticlassStrategy::kOneVsRest;
  q.num_classes = classes;
  q.input_format = quant::input_format(input_bits);
  q.weight_format = fixed::FixedFormat{.total_bits = weight_bits,
                                       .frac_bits = weight_bits - 1,
                                       .is_signed = true};
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ull + 1;
  const std::int64_t wmin = q.weight_format.min_code();
  const std::int64_t wmax = q.weight_format.max_code();
  for (int k = 0; k < classes; ++k) {
    QuantizedClassifier c;
    for (int j = 0; j < features; ++j) {
      c.w.push_back(wmin + static_cast<std::int64_t>(
                               xorshift(s) % static_cast<std::uint64_t>(
                                                 wmax - wmin + 1)));
    }
    c.b = -8 + static_cast<std::int64_t>(xorshift(s) % 17);
    q.classifiers.push_back(std::move(c));
  }
  return q;
}

/// Random combinational + sequential netlist over `inputs`-bit port "x"
/// (same construction as test_sim_event.cpp).
Module random_module(std::uint64_t seed, int inputs, int gates, int dffs) {
  Module m("rand");
  std::uint64_t s = seed * 2654435761u + 1;
  auto below = [&s](std::uint32_t n) {
    return static_cast<std::uint32_t>(xorshift(s) % n);
  };
  std::vector<NetId> pool = m.add_input_port("x", inputs);
  static constexpr CellType kComb[] = {
      CellType::kInv,   CellType::kBuf,  CellType::kNand2, CellType::kNor2,
      CellType::kAnd2,  CellType::kOr2,  CellType::kXor2,  CellType::kXnor2,
      CellType::kMux2};
  for (int i = 0; i < gates; ++i) {
    const CellType t = kComb[below(9)];
    const NetId a = pool[below(static_cast<std::uint32_t>(pool.size()))];
    const NetId b = pool[below(static_cast<std::uint32_t>(pool.size()))];
    const NetId sel = pool[below(static_cast<std::uint32_t>(pool.size()))];
    const int arity = netlist::cell_num_inputs(t);
    pool.push_back(arity == 1   ? m.add_gate_raw(t, a)
                   : arity == 2 ? m.add_gate_raw(t, a, b)
                                : m.add_gate_raw(t, a, b, sel));
  }
  for (int i = 0; i < dffs; ++i) {
    const NetId d = pool[below(static_cast<std::uint32_t>(pool.size()))];
    pool.push_back(m.dff(d, (xorshift(s) & 1) != 0));
  }
  std::vector<NetId> outs(pool.end() - std::min<std::size_t>(8, pool.size()),
                          pool.end());
  m.add_output_port("y", outs);
  return m;
}

/// 0-3 random stuck-at faults on cell outputs for each of lanes [1, lanes).
std::vector<std::vector<std::pair<NetId, bool>>> random_lane_faults(
    const Module& m, std::size_t lanes, std::uint64_t seed) {
  std::uint64_t s = seed ^ 0xFA0175ull;
  std::vector<std::vector<std::pair<NetId, bool>>> faults(lanes);
  for (std::size_t lane = 1; lane < lanes; ++lane) {
    const std::size_t count = xorshift(s) % 4;  // 0 faults is a valid variant
    for (std::size_t f = 0; f < count; ++f) {
      const auto idx =
          static_cast<std::size_t>(xorshift(s) % m.cells().size());
      faults[lane].emplace_back(m.cells()[idx].out, (xorshift(s) & 1) != 0);
    }
  }
  return faults;
}

/// Drive the batch simulator and, per lane, a scalar CycleSimulator with
/// the same faults installed via force_net, through the same free-running
/// sample stream (`samples[i][j]` = value of input port j at sample i),
/// and require every output port to agree on every sample in every lane.
/// Lane 0 of `lane_faults` must be empty (it is the reserved reference).
/// `cycles` == 0 settles once per sample (combinational).
void expect_fault_lanewise_equal(
    const Module& m, int cycles, const std::vector<std::string>& in_ports,
    const std::vector<std::vector<std::uint64_t>>& samples,
    const std::vector<std::vector<std::pair<NetId, bool>>>& lane_faults) {
  const auto lv = levelize_shared(m);
  BatchFaultSimulator batch(m, lv);
  std::vector<CycleSimulator> scalars;
  scalars.reserve(lane_faults.size());
  for (std::size_t lane = 0; lane < lane_faults.size(); ++lane) {
    scalars.emplace_back(m, lv);
    for (const auto& [net, value] : lane_faults[lane]) {
      if (lane == 0) FAIL() << "lane 0 must stay fault-free";
      batch.set_fault(net, lane, value);
      scalars.back().force_net(net, value);
    }
    scalars.back().reset();
  }
  batch.reset();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    for (std::size_t j = 0; j < in_ports.size(); ++j) {
      batch.set_port_broadcast(in_ports[j], samples[i][j]);
      for (auto& scalar : scalars) scalar.set_port(in_ports[j], samples[i][j]);
    }
    if (cycles == 0) {
      batch.propagate();
      for (auto& scalar : scalars) scalar.propagate();
    } else {
      for (int c = 0; c < cycles; ++c) {
        batch.step();
        for (auto& scalar : scalars) scalar.step();
      }
    }
    for (std::size_t lane = 0; lane < scalars.size(); ++lane) {
      for (const netlist::Port& out : m.output_ports()) {
        EXPECT_EQ(batch.port_unsigned(out, lane),
                  scalars[lane].port_unsigned(out))
            << "port '" << out.name << "' diverges on sample " << i
            << " in lane " << lane;
      }
    }
  }
}

std::vector<std::vector<std::uint64_t>> svm_samples(std::size_t count,
                                                    int features,
                                                    std::int64_t max_code,
                                                    std::uint64_t seed) {
  std::uint64_t s = seed | 1;
  std::vector<std::vector<std::uint64_t>> samples(count);
  for (auto& row : samples) {
    for (int j = 0; j < features; ++j) {
      row.push_back(xorshift(s) % static_cast<std::uint64_t>(max_code + 1));
    }
  }
  return samples;
}

std::vector<std::string> feature_port_names(int features) {
  std::vector<std::string> names;
  for (int j = 0; j < features; ++j) {
    names.push_back(std::string("x").append(std::to_string(j)));
  }
  return names;
}

// --- lane-by-lane equivalence vs the force_net oracle -----------------------

TEST(BatchFaultSim, SequentialSvmMatchesScalarOracleLaneByLane) {
  for (const std::uint64_t seed : {1ull, 2ull}) {
    const QuantizedSvm q =
        random_svm(3 + static_cast<int>(seed % 3), 4, 3, 4, seed);
    const auto circuit = arch::build_sequential_svm(q);
    expect_fault_lanewise_equal(
        circuit.module, circuit.cycles_per_inference, feature_port_names(4),
        svm_samples(8, 4, q.input_format.max_code(), seed * 77),
        random_lane_faults(circuit.module, kLanes, seed * 131));
  }
}

TEST(BatchFaultSim, ParallelSvmMatchesScalarOracleLaneByLane) {
  const QuantizedSvm q = random_svm(4, 3, 3, 4, 11);
  const auto circuit = arch::build_parallel_svm(q);
  expect_fault_lanewise_equal(
      circuit.module, /*cycles=*/0, feature_port_names(3),
      svm_samples(8, 3, q.input_format.max_code(), 99),
      random_lane_faults(circuit.module, kLanes, 17));
}

TEST(BatchFaultSim, RandomNetlistsMatchScalarOracleLaneByLane) {
  for (const std::uint64_t seed : {5ull, 6ull, 7ull}) {
    // Mix of combinational-only and sequential random designs.
    const int dffs = seed % 2 == 0 ? 0 : 6;
    const Module m = random_module(seed, 6, 120, dffs);
    std::uint64_t s = seed * 31;
    std::vector<std::vector<std::uint64_t>> samples(10);
    for (auto& row : samples) row.push_back(xorshift(s) % 64);
    expect_fault_lanewise_equal(m, dffs == 0 ? 0 : 2, {"x"}, samples,
                                random_lane_faults(m, kLanes, seed * 997));
  }
}

TEST(BatchFaultSim, FaultsOnPrimaryInputsMatchScalarOracle) {
  const QuantizedSvm q = random_svm(3, 3, 3, 4, 23);
  const auto circuit = arch::build_sequential_svm(q);
  const netlist::Port* x0 = circuit.module.find_input("x0");
  ASSERT_NE(x0, nullptr);
  // Stick individual input bits high/low in different lanes.
  std::vector<std::vector<std::pair<NetId, bool>>> faults(4);
  faults[1] = {{x0->nets[0], true}};
  faults[2] = {{x0->nets[1], false}};
  faults[3] = {{x0->nets[0], false}, {x0->nets[2], true}};
  expect_fault_lanewise_equal(
      circuit.module, circuit.cycles_per_inference, feature_port_names(3),
      svm_samples(8, 3, q.input_format.max_code(), 5), faults);
}

// --- the reserved fault-free lane 0 ------------------------------------------

TEST(BatchFaultSim, LaneZeroStaysGoldenUnderHeavyFaults) {
  const QuantizedSvm q = random_svm(4, 4, 3, 4, 3);
  const auto circuit = arch::build_sequential_svm(q);
  const auto lv = levelize_shared(circuit.module);
  BatchFaultSimulator batch(circuit.module, lv);
  CycleSimulator golden(circuit.module, lv);
  // Saturate every other lane with faults; lane 0 must not notice.
  std::uint64_t s = 41;
  for (std::size_t lane = 1; lane < kLanes; ++lane) {
    for (int f = 0; f < 4; ++f) {
      const auto idx = static_cast<std::size_t>(
          xorshift(s) % circuit.module.cells().size());
      batch.set_fault(circuit.module.cells()[idx].out, lane,
                      (xorshift(s) & 1) != 0);
    }
  }
  batch.reset();
  const auto xs = svm_samples(6, 4, q.input_format.max_code(), 13);
  for (const auto& x : xs) {
    for (std::size_t j = 0; j < x.size(); ++j) {
      batch.set_port_broadcast(std::string("x").append(std::to_string(j)),
                               x[j]);
      golden.set_port(std::string("x").append(std::to_string(j)), x[j]);
    }
    for (int c = 0; c < circuit.cycles_per_inference; ++c) {
      batch.step();
      golden.step();
    }
    EXPECT_EQ(batch.port_unsigned("class", 0), golden.port_unsigned("class"));
  }
}

TEST(BatchFaultSim, RejectsLaneZeroFaults) {
  const Module m = random_module(1, 4, 20, 0);
  BatchFaultSimulator sim(m);
  EXPECT_THROW(sim.set_fault(m.cells()[0].out, 0, true),
               std::invalid_argument);
}

// --- API edges ---------------------------------------------------------------

TEST(BatchFaultSim, FaultBookkeepingAndBounds) {
  const Module m = random_module(2, 4, 20, 2);
  BatchFaultSimulator sim(m);
  const NetId out = m.cells()[0].out;
  EXPECT_EQ(sim.num_faults(), 0u);
  sim.set_fault(out, 1, true);
  EXPECT_EQ(sim.num_faults(), 1u);
  EXPECT_EQ(sim.fault1_chunk(out, 0), 0b10u);
  // Re-sticking the same (net, lane) overwrites instead of accumulating.
  sim.set_fault(out, 1, false);
  EXPECT_EQ(sim.num_faults(), 1u);
  EXPECT_EQ(sim.fault0_chunk(out, 0), 0b10u);
  EXPECT_EQ(sim.fault1_chunk(out, 0), 0u);
  sim.set_fault(out, 5, true);
  EXPECT_EQ(sim.num_faults(), 2u);
  sim.clear_faults();
  EXPECT_EQ(sim.num_faults(), 0u);
  EXPECT_EQ(sim.fault0_chunk(out, 0), 0u);

  EXPECT_THROW(sim.set_fault(out, kLanes, true), std::out_of_range);
  EXPECT_THROW(sim.set_fault(netlist::kConst0, 1, true),
               std::invalid_argument);
  EXPECT_THROW(sim.set_fault(netlist::kConst1, 1, false),
               std::invalid_argument);
  EXPECT_THROW(sim.set_fault(static_cast<NetId>(m.num_nets()), 1, true),
               std::out_of_range);
  EXPECT_THROW(BatchFaultSimulator(m, nullptr), std::invalid_argument);
}

TEST(BatchFaultSim, ClearFaultsTakesEffectWithoutReset) {
  // A cleared fault must be recomputed away on the very next propagate,
  // even though nothing else changed (the fixpoint-skip must not keep the
  // stale forced value alive).
  Module m;
  const NetId a = m.add_input_port("x", 1)[0];
  const NetId y = m.add_gate_raw(CellType::kBuf, a);
  m.add_output_port("y", {y});
  BatchFaultSimulator sim(m);
  sim.set_port_broadcast("x", 1);
  sim.set_fault(y, 1, false);
  sim.propagate();
  EXPECT_EQ(sim.port_unsigned("y", 0), 1u);
  EXPECT_EQ(sim.port_unsigned("y", 1), 0u);
  sim.clear_faults();
  sim.propagate();
  EXPECT_EQ(sim.port_unsigned("y", 1), 1u);
}

}  // namespace
}  // namespace pml::sim

// --- run_fault_campaign ------------------------------------------------------

namespace pml::core {
namespace {

using quant::QuantizedSvm;

QuantizedSvm small_model() {
  QuantizedSvm q;
  q.strategy = ml::MulticlassStrategy::kOneVsRest;
  q.num_classes = 3;
  q.input_format = quant::input_format(3);
  q.weight_format =
      fixed::FixedFormat{.total_bits = 4, .frac_bits = 3, .is_signed = true};
  q.classifiers = {quant::QuantizedClassifier{{3, -2}, 1},
                   quant::QuantizedClassifier{{-1, 4}, 0},
                   quant::QuantizedClassifier{{2, 2}, -3}};
  return q;
}

CircuitWorkload exhaustive_workload(const QuantizedSvm& q) {
  CircuitWorkload wl;
  for (std::int64_t a = 0; a <= 7; ++a) {
    for (std::int64_t b = 0; b <= 7; ++b) {
      wl.feature_codes.push_back({a, b});
      wl.expected_class.push_back(q.predict_codes({a, b}));
    }
  }
  return wl;
}

/// Scalar oracle: the campaign protocol, one variant at a time (install
/// faults, reset, free-running replay).
std::vector<std::size_t> scalar_campaign(const netlist::Module& module,
                                         int cycles, bool sequential,
                                         const CircuitWorkload& wl,
                                         std::size_t n,
                                         const std::vector<FaultSet>& sets) {
  const auto lv = sim::levelize_shared(module);
  sim::CycleSimulator sim(module, lv);
  const auto ports = feature_ports(module, wl.feature_codes[0].size());
  const netlist::Port* class_port = module.find_output("class");
  std::vector<std::size_t> counts;
  for (const FaultSet& set : sets) {
    sim.clear_forces();
    for (const StuckAtFault& f : set.faults) sim.force_net(f.net, f.stuck_value);
    sim.reset();
    std::size_t mis = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < ports.size(); ++j) {
        sim.set_port(*ports[j],
                     static_cast<std::uint64_t>(wl.feature_codes[i][j]));
      }
      if (sequential) {
        for (int c = 0; c < cycles; ++c) sim.step();
      } else {
        sim.propagate();
      }
      mis += static_cast<int>(sim.port_unsigned(*class_port)) !=
             wl.expected_class[i];
    }
    counts.push_back(mis);
  }
  return counts;
}

TEST(FaultCampaign, MatchesScalarOracleExactlyRaggedAndMultiBatch) {
  const auto q = small_model();
  auto circuit = arch::build_sequential_svm(q);
  const auto wl = exhaustive_workload(q);
  // 100 sets = one full 63-variant batch plus a ragged 37-variant batch:
  // 80 random multi-fault sets on top of 20 enumerated single faults.
  auto sets = sample_fault_sets(circuit.module, 3, 80, 2024);
  const auto singles = enumerate_single_faults(circuit.module);
  sets.insert(sets.end(), singles.begin(), singles.begin() + 20);
  FaultCampaignOptions opts;
  opts.max_samples = 32;
  const auto result = run_fault_campaign(
      circuit.module, circuit.cycles_per_inference, wl, sets, opts);
  const auto oracle =
      scalar_campaign(circuit.module, circuit.cycles_per_inference,
                      /*sequential=*/true, wl, 32, sets);
  ASSERT_EQ(result.variants.size(), sets.size());
  for (std::size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(result.variants[i].misclassified, oracle[i])
        << "variant " << i << " diverges from the scalar oracle";
    EXPECT_EQ(result.variants[i].samples, 32u);
  }
  // The workload's expected classes ARE the model's predictions, so the
  // fault-free golden lane must classify everything correctly.
  EXPECT_EQ(result.golden.misclassified, 0u);
  EXPECT_EQ(result.golden.samples, 32u);
}

TEST(FaultCampaign, CombinationalParallelSvmMatchesOracle) {
  const auto q = small_model();
  auto circuit = arch::build_parallel_svm(q);
  const auto wl = exhaustive_workload(q);
  const auto sets = sample_fault_sets(circuit.module, 2, 40, 77);
  FaultCampaignOptions opts;
  opts.max_samples = 16;
  const auto result =
      run_fault_campaign(circuit.module, 1, wl, sets, opts);
  const auto oracle = scalar_campaign(circuit.module, 1, /*sequential=*/false,
                                      wl, 16, sets);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(result.variants[i].misclassified, oracle[i]);
  }
  EXPECT_EQ(result.golden.misclassified, 0u);
}

TEST(FaultCampaign, ThreadCountInvariantAndDeterministic) {
  const auto q = small_model();
  auto circuit = arch::build_sequential_svm(q);
  const auto wl = exhaustive_workload(q);
  const auto sets = sample_fault_sets(circuit.module, 2, 150, 5);
  std::vector<FaultCampaignResult> runs;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{7}, std::size_t{1}}) {
    FaultCampaignOptions opts;
    opts.num_threads = threads;
    opts.max_samples = 20;
    runs.push_back(run_fault_campaign(
        circuit.module, circuit.cycles_per_inference, wl, sets, opts));
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    EXPECT_EQ(runs[r].golden.misclassified, runs[0].golden.misclassified);
    ASSERT_EQ(runs[r].variants.size(), runs[0].variants.size());
    for (std::size_t i = 0; i < runs[0].variants.size(); ++i) {
      EXPECT_EQ(runs[r].variants[i].misclassified,
                runs[0].variants[i].misclassified)
          << "variant " << i << " differs between thread configs";
    }
  }
}

TEST(FaultCampaign, SharedLevelizationAndGenerators) {
  const auto q = small_model();
  auto circuit = arch::build_sequential_svm(q);
  const auto wl = exhaustive_workload(q);
  const auto singles = enumerate_single_faults(circuit.module);
  EXPECT_EQ(singles.size(), circuit.module.cells().size() * 2);
  for (std::size_t i = 0; i + 1 < singles.size(); i += 2) {
    ASSERT_EQ(singles[i].faults.size(), 1u);
    EXPECT_EQ(singles[i].faults[0].net, singles[i + 1].faults[0].net);
    EXPECT_FALSE(singles[i].faults[0].stuck_value);
    EXPECT_TRUE(singles[i + 1].faults[0].stuck_value);
  }
  const auto a = sample_fault_sets(circuit.module, 4, 10, 99);
  const auto b = sample_fault_sets(circuit.module, 4, 10, 99);
  ASSERT_EQ(a.size(), 10u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].faults.size(), 4u);
    for (std::size_t f = 0; f < 4; ++f) {
      EXPECT_EQ(a[i].faults[f].net, b[i].faults[f].net);
      EXPECT_EQ(a[i].faults[f].stuck_value, b[i].faults[f].stuck_value);
    }
  }
  FaultCampaignOptions opts;
  opts.levelization = sim::levelize_shared(circuit.module);
  opts.max_samples = 8;
  const auto r = run_fault_campaign(circuit.module,
                                    circuit.cycles_per_inference, wl,
                                    {singles[0], singles[1]}, opts);
  EXPECT_EQ(r.variants.size(), 2u);
}

TEST(FaultCampaign, AccuracyVsFaultCountCurve) {
  std::vector<FaultSet> sets(5);
  sets[0].faults = {StuckAtFault{10, false}};
  sets[1].faults = {StuckAtFault{11, true}};
  sets[2].faults = {StuckAtFault{10, false}, StuckAtFault{11, true}};
  sets[3].faults = {StuckAtFault{12, true}, StuckAtFault{13, false}};
  // sets[4] stays empty: a fault-free variant must average into the
  // 0-fault point alongside the golden reference, not corrupt it.
  FaultCampaignResult result;
  result.golden = {1, 10};  // 90% reference
  result.variants = {{2, 10}, {6, 10}, {5, 10}, {9, 10}, {3, 10}};
  const auto curve = accuracy_vs_fault_count(sets, result);
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_EQ(curve[0].num_faults, 0u);
  EXPECT_EQ(curve[0].variants, 2u);
  EXPECT_NEAR(curve[0].mean_accuracy, 0.8, 1e-12);  // (0.9 + 0.7) / 2
  EXPECT_EQ(curve[0].broken, 0u);
  EXPECT_EQ(curve[1].num_faults, 1u);
  EXPECT_EQ(curve[1].variants, 2u);
  EXPECT_NEAR(curve[1].mean_accuracy, 0.6, 1e-12);  // (0.8 + 0.4) / 2
  EXPECT_EQ(curve[1].broken, 1u);
  EXPECT_EQ(curve[2].num_faults, 2u);
  EXPECT_EQ(curve[2].variants, 2u);
  EXPECT_NEAR(curve[2].mean_accuracy, 0.3, 1e-12);  // (0.5 + 0.1) / 2
  EXPECT_EQ(curve[2].broken, 2u);

  FaultCampaignResult lopsided;
  lopsided.variants.resize(1);
  EXPECT_THROW((void)accuracy_vs_fault_count(sets, lopsided),
               std::invalid_argument);
}

TEST(FaultCampaign, RejectsMalformedInputs) {
  const auto q = small_model();
  auto circuit = arch::build_sequential_svm(q);
  const auto wl = exhaustive_workload(q);
  const auto sets = enumerate_single_faults(circuit.module);
  CircuitWorkload empty;
  EXPECT_THROW((void)run_fault_campaign(circuit.module, 3, empty,
                                        {sets[0]}),
               std::invalid_argument);
  EXPECT_THROW((void)run_fault_campaign(circuit.module, 3, wl, {}),
               std::invalid_argument);
  FaultCampaignOptions zero;
  zero.max_samples = 0;
  EXPECT_THROW((void)run_fault_campaign(circuit.module, 3, wl, {sets[0]},
                                        zero),
               std::invalid_argument);
  // A fault on a constant or out-of-range net surfaces as the simulator's
  // invalid_argument/out_of_range, not a silent no-op.
  FaultSet bad;
  bad.faults = {StuckAtFault{netlist::kConst1, true}};
  EXPECT_THROW((void)run_fault_campaign(circuit.module, 3, wl, {bad}),
               std::invalid_argument);
  EXPECT_THROW((void)sample_fault_sets(circuit.module, 0, 3, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace pml::core
