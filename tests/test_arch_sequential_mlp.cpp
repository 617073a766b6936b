// The folded sequential MLP extension: exhaustive bit-exactness against
// the integer model, protocol behaviour, and the folding area advantage.

#include <gtest/gtest.h>

#include <string>

#include "pml/arch/mlp_circuit.hpp"
#include "pml/arch/sequential_mlp.hpp"
#include "pml/sim/cycle_sim.hpp"

namespace pml::arch {
namespace {

using quant::QuantizedMlp;

QuantizedMlp tiny_mlp(int inputs, int hidden, int outputs, int input_bits,
                      std::uint64_t seed) {
  QuantizedMlp q;
  q.num_inputs = inputs;
  q.num_hidden = hidden;
  q.num_outputs = outputs;
  q.input_format = quant::input_format(input_bits);
  q.w1_format =
      fixed::FixedFormat{.total_bits = 4, .frac_bits = 3, .is_signed = true};
  q.hidden_format =
      fixed::FixedFormat{.total_bits = 4, .frac_bits = 4, .is_signed = false};
  q.w2_format =
      fixed::FixedFormat{.total_bits = 4, .frac_bits = 3, .is_signed = true};
  q.hidden_shift = 3;
  std::uint64_t s = seed ^ 0xFEED5EEDull;
  auto next = [&s]() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  auto rand_w = [&next]() {
    return -8 + static_cast<std::int64_t>(next() % 16);
  };
  q.w1.resize(static_cast<std::size_t>(hidden));
  q.b1.resize(static_cast<std::size_t>(hidden));
  for (int i = 0; i < hidden; ++i) {
    for (int j = 0; j < inputs; ++j) {
      q.w1[static_cast<std::size_t>(i)].push_back(rand_w());
    }
    q.b1[static_cast<std::size_t>(i)] = rand_w() * 4;
  }
  q.w2.resize(static_cast<std::size_t>(outputs));
  q.b2.resize(static_cast<std::size_t>(outputs));
  for (int k = 0; k < outputs; ++k) {
    for (int i = 0; i < hidden; ++i) {
      q.w2[static_cast<std::size_t>(k)].push_back(rand_w());
    }
    q.b2[static_cast<std::size_t>(k)] = rand_w() * 2;
  }
  return q;
}

int classify(sim::CycleSimulator& sim, const SequentialMlpCircuit& circuit,
             const std::vector<std::int64_t>& xq) {
  for (std::size_t j = 0; j < xq.size(); ++j) {
    sim.set_port(std::string("x").append(std::to_string(j)),
                 static_cast<std::uint64_t>(xq[j]));
  }
  for (int c = 0; c < circuit.cycles_per_inference; ++c) sim.step();
  return static_cast<int>(sim.port_unsigned("class"));
}

class SeqMlpShape
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SeqMlpShape, BitExactExhaustive) {
  const auto [inputs, hidden, outputs] = GetParam();
  const QuantizedMlp q =
      tiny_mlp(inputs, hidden, outputs, 2,
               static_cast<std::uint64_t>(inputs * 5 + hidden * 3 + outputs));
  SequentialMlpCircuit circuit = build_sequential_mlp(q);
  ASSERT_EQ(circuit.module.validate(), std::nullopt);
  EXPECT_EQ(circuit.cycles_per_inference, hidden + outputs);
  sim::CycleSimulator sim(circuit.module);

  const std::int64_t xmax = q.input_format.max_code();
  std::vector<std::int64_t> xq(static_cast<std::size_t>(inputs), 0);
  std::size_t total = 1;
  for (int j = 0; j < inputs; ++j) {
    total *= static_cast<std::size_t>(xmax + 1);
  }
  for (std::size_t idx = 0; idx < total; ++idx) {
    std::size_t rest = idx;
    for (int j = 0; j < inputs; ++j) {
      xq[static_cast<std::size_t>(j)] =
          static_cast<std::int64_t>(rest % static_cast<std::size_t>(xmax + 1));
      rest /= static_cast<std::size_t>(xmax + 1);
    }
    EXPECT_EQ(classify(sim, circuit, xq), q.predict_codes(xq))
        << "input " << idx;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SeqMlpShape,
    ::testing::Values(std::make_tuple(2, 2, 2), std::make_tuple(3, 2, 3),
                      std::make_tuple(2, 3, 4), std::make_tuple(4, 2, 2),
                      std::make_tuple(2, 4, 3), std::make_tuple(3, 3, 5)));

TEST(SequentialMlp, BackToBackWithoutReset) {
  const QuantizedMlp q = tiny_mlp(3, 3, 3, 3, 77);
  SequentialMlpCircuit circuit = build_sequential_mlp(q);
  sim::CycleSimulator sim(circuit.module);
  const std::vector<std::vector<std::int64_t>> samples = {
      {0, 5, 7}, {7, 0, 2}, {3, 3, 3}, {1, 6, 4}};
  for (const auto& xq : samples) {
    EXPECT_EQ(classify(sim, circuit, xq), q.predict_codes(xq));
  }
}

TEST(SequentialMlp, DonePulsesAtEndOfSweep) {
  const QuantizedMlp q = tiny_mlp(2, 2, 3, 2, 5);
  SequentialMlpCircuit circuit = build_sequential_mlp(q);
  sim::CycleSimulator sim(circuit.module);
  sim.set_port("x0", 1);
  sim.set_port("x1", 2);
  const int total = circuit.cycles_per_inference;
  for (int c = 0; c < total; ++c) {
    sim.propagate();
    EXPECT_EQ(sim.port_unsigned("done"), c == total - 1 ? 1u : 0u)
        << "cycle " << c;
    sim.step();
  }
}

TEST(SequentialMlp, FoldingShrinksComputeVsParallel) {
  // A larger network where folding should pay in area.
  const QuantizedMlp q = tiny_mlp(12, 6, 4, 4, 9);
  const auto seq = build_sequential_mlp(q);
  const auto par = build_mlp_circuit(q);
  EXPECT_LT(seq.module.cells().size(), par.module.cells().size());
}

}  // namespace
}  // namespace pml::arch
