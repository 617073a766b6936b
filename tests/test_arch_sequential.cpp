// The sequential SVM circuit (the paper's Fig. 1): exhaustive bit-exact
// equivalence with the integer model, protocol behaviour, and structure.

#include <gtest/gtest.h>

#include <string>

#include "pml/arch/sequential_svm.hpp"
#include "pml/sim/cycle_sim.hpp"

namespace pml::arch {
namespace {

using quant::QuantizedClassifier;
using quant::QuantizedSvm;

/// Small hand-built OvR model: `classes` classifiers over `features`
/// features with deterministic pseudo-random weights.
QuantizedSvm tiny_model(int classes, int features, int input_bits,
                        int weight_bits, std::uint64_t seed) {
  QuantizedSvm q;
  q.strategy = ml::MulticlassStrategy::kOneVsRest;
  q.num_classes = classes;
  q.input_format = quant::input_format(input_bits);
  q.weight_format = fixed::FixedFormat{.total_bits = weight_bits,
                                       .frac_bits = weight_bits - 1,
                                       .is_signed = true};
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ull + 1;
  auto next = [&s]() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  const std::int64_t wmin = q.weight_format.min_code();
  const std::int64_t wmax = q.weight_format.max_code();
  for (int k = 0; k < classes; ++k) {
    QuantizedClassifier c;
    for (int j = 0; j < features; ++j) {
      c.w.push_back(wmin + static_cast<std::int64_t>(
                               next() % static_cast<std::uint64_t>(
                                            wmax - wmin + 1)));
    }
    c.b = -8 + static_cast<std::int64_t>(next() % 17);
    q.classifiers.push_back(std::move(c));
  }
  return q;
}

/// Clock the circuit through one classification and return the predicted
/// class.
int classify(sim::CycleSimulator& sim, const netlist::Module& m,
             const SequentialSvmCircuit& circuit,
             const std::vector<std::int64_t>& xq) {
  for (std::size_t j = 0; j < xq.size(); ++j) {
    sim.set_port(std::string("x").append(std::to_string(j)),
                 static_cast<std::uint64_t>(xq[j]));
  }
  for (int c = 0; c < circuit.cycles_per_inference; ++c) sim.step();
  (void)m;
  return static_cast<int>(sim.port_unsigned("class"));
}

class SeqShape : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SeqShape, BitExactExhaustive) {
  const auto [classes, features, input_bits] = GetParam();
  const QuantizedSvm q = tiny_model(classes, features, input_bits, 4,
                                    static_cast<std::uint64_t>(classes * 131 +
                                                               features));
  SequentialSvmCircuit circuit = build_sequential_svm(q);
  ASSERT_EQ(circuit.module.validate(), std::nullopt);
  EXPECT_EQ(circuit.cycles_per_inference, classes);
  sim::CycleSimulator sim(circuit.module);

  // Exhaustive over the full input space.
  const std::int64_t xmax = q.input_format.max_code();
  std::vector<std::int64_t> xq(static_cast<std::size_t>(features), 0);
  std::size_t total = 1;
  for (int j = 0; j < features; ++j) {
    total *= static_cast<std::size_t>(xmax + 1);
  }
  for (std::size_t idx = 0; idx < total; ++idx) {
    std::size_t rest = idx;
    for (int j = 0; j < features; ++j) {
      xq[static_cast<std::size_t>(j)] =
          static_cast<std::int64_t>(rest % static_cast<std::size_t>(xmax + 1));
      rest /= static_cast<std::size_t>(xmax + 1);
    }
    const int hw = classify(sim, circuit.module, circuit, xq);
    EXPECT_EQ(hw, q.predict_codes(xq)) << "input index " << idx;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SeqShape,
    ::testing::Values(std::make_tuple(2, 2, 2), std::make_tuple(3, 2, 2),
                      std::make_tuple(3, 3, 2), std::make_tuple(4, 2, 3),
                      std::make_tuple(5, 2, 2), std::make_tuple(6, 2, 2),
                      std::make_tuple(10, 1, 3)));

TEST(SequentialSvm, BackToBackClassificationsNeedNoReset) {
  const QuantizedSvm q = tiny_model(3, 3, 3, 4, 42);
  SequentialSvmCircuit circuit = build_sequential_svm(q);
  sim::CycleSimulator sim(circuit.module);
  // Three different samples in a row on the same simulator.
  const std::vector<std::vector<std::int64_t>> samples = {
      {0, 3, 7}, {7, 7, 0}, {1, 1, 1}};
  for (const auto& xq : samples) {
    EXPECT_EQ(classify(sim, circuit.module, circuit, xq), q.predict_codes(xq));
  }
}

TEST(SequentialSvm, DonePulsesOnLastCycle) {
  const QuantizedSvm q = tiny_model(4, 2, 2, 4, 7);
  SequentialSvmCircuit circuit = build_sequential_svm(q);
  sim::CycleSimulator sim(circuit.module);
  sim.set_port("x0", 1);
  sim.set_port("x1", 2);
  // Cycle 0..2: done low; cycle 3 (count==3): done high.
  for (int c = 0; c < 4; ++c) {
    sim.propagate();
    EXPECT_EQ(sim.port_unsigned("done"), c == 3 ? 1u : 0u) << "cycle " << c;
    sim.step();
  }
  sim.propagate();
  EXPECT_EQ(sim.port_unsigned("done"), 0u) << "counter wrapped";
}

TEST(SequentialSvm, ScoreOutputTracksPerCycleDecisions) {
  const QuantizedSvm q = tiny_model(3, 2, 3, 4, 11);
  SequentialSvmCircuit circuit = build_sequential_svm(q);
  sim::CycleSimulator sim(circuit.module);
  const std::vector<std::int64_t> xq = {5, 2};
  sim.set_port("x0", static_cast<std::uint64_t>(xq[0]));
  sim.set_port("x1", static_cast<std::uint64_t>(xq[1]));
  for (int k = 0; k < 3; ++k) {
    sim.propagate();
    EXPECT_EQ(sim.port_signed("score"),
              q.decision(static_cast<std::size_t>(k), xq))
        << "cycle " << k;
    sim.step();
  }
}

TEST(SequentialSvm, HasAllFourComponents) {
  const QuantizedSvm q = tiny_model(4, 4, 3, 5, 3);
  SequentialSvmCircuit circuit = build_sequential_svm(q);
  const auto& names = circuit.module.group_names();
  for (const char* component : {kGroupControl, kGroupStorage, kGroupCompute,
                                kGroupVoter}) {
    EXPECT_NE(std::find(names.begin(), names.end(), component), names.end());
  }
  const auto stats = circuit.module.stats();
  // Voter state: score register + class id register; control: counter.
  EXPECT_GT(stats.num_dffs, 0u);
}

TEST(SequentialSvm, VoterTieKeepsLowestClass) {
  // Two identical classifiers: scores tie, class 0 must win.
  QuantizedSvm q;
  q.strategy = ml::MulticlassStrategy::kOneVsRest;
  q.num_classes = 2;
  q.input_format = quant::input_format(2);
  q.weight_format =
      fixed::FixedFormat{.total_bits = 4, .frac_bits = 3, .is_signed = true};
  q.classifiers = {QuantizedClassifier{{3}, 1},
                   QuantizedClassifier{{3}, 1}};
  SequentialSvmCircuit circuit = build_sequential_svm(q);
  sim::CycleSimulator sim(circuit.module);
  for (std::int64_t x = 0; x <= 3; ++x) {
    EXPECT_EQ(classify(sim, circuit.module, circuit, {x}), 0);
  }
}

TEST(SequentialSvm, RejectsOvoModels) {
  QuantizedSvm q = tiny_model(3, 2, 2, 4, 1);
  q.strategy = ml::MulticlassStrategy::kOneVsOne;
  EXPECT_THROW((void)build_sequential_svm(q), std::invalid_argument);
}

TEST(SequentialSvm, StorageGrowsWithClasses) {
  const QuantizedSvm q3 = tiny_model(3, 4, 3, 5, 9);
  const QuantizedSvm q8 = tiny_model(8, 4, 3, 5, 9);
  const auto c3 = build_sequential_svm(q3);
  const auto c8 = build_sequential_svm(q8);
  auto storage_cells = [](const SequentialSvmCircuit& c) {
    const auto stats = c.module.stats();
    std::size_t total = 0;
    for (std::size_t g = 0; g < c.module.group_names().size(); ++g) {
      if (c.module.group_names()[g] == kGroupStorage) {
        for (int t = 0; t < netlist::kNumCellTypes; ++t) {
          total += stats.counts_by_group[g][t];
        }
      }
    }
    return total;
  };
  EXPECT_GT(storage_cells(c8), storage_cells(c3));
}

}  // namespace
}  // namespace pml::arch
