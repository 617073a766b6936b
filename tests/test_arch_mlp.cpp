// Bespoke MLP circuit (the TC'23 baseline): exhaustive bit-exactness with
// the integer model, including ReLU and saturation corner cases.

#include <gtest/gtest.h>

#include <string>

#include "pml/arch/mlp_circuit.hpp"
#include "pml/fixed/csd.hpp"
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
  std::uint64_t s = seed ^ 0x5555AAAAull;
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

int classify(sim::CycleSimulator& sim, const std::vector<std::int64_t>& xq) {
  for (std::size_t j = 0; j < xq.size(); ++j) {
    sim.set_port(std::string("x").append(std::to_string(j)),
                 static_cast<std::uint64_t>(xq[j]));
  }
  sim.propagate();
  return static_cast<int>(sim.port_unsigned("class"));
}

class MlpShape : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MlpShape, BitExactExhaustive) {
  const auto [inputs, hidden, outputs] = GetParam();
  const QuantizedMlp q =
      tiny_mlp(inputs, hidden, outputs, 2,
               static_cast<std::uint64_t>(inputs * 31 + hidden * 7 + outputs));
  MlpCircuit circuit = build_mlp_circuit(q);
  ASSERT_EQ(circuit.module.validate(), std::nullopt);
  EXPECT_EQ(circuit.module.stats().num_dffs, 0u);
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
    EXPECT_EQ(classify(sim, xq), q.predict_codes(xq)) << "input " << idx;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MlpShape,
    ::testing::Values(std::make_tuple(2, 2, 2), std::make_tuple(3, 2, 3),
                      std::make_tuple(2, 3, 4), std::make_tuple(4, 2, 2),
                      std::make_tuple(2, 4, 3)));

TEST(MlpCircuit, SaturationPathExercised) {
  // Large positive weights force hidden saturation for big inputs; the
  // circuit must clamp exactly like the model.
  QuantizedMlp q = tiny_mlp(2, 2, 2, 3, 1);
  q.w1 = {{7, 7}, {7, 7}};
  q.b1 = {20, 20};
  q.hidden_shift = 1;  // small shift -> codes exceed 4-bit range
  MlpCircuit circuit = build_mlp_circuit(q);
  sim::CycleSimulator sim(circuit.module);
  bool saturated_case_seen = false;
  for (std::int64_t a = 0; a <= 7; ++a) {
    for (std::int64_t b = 0; b <= 7; ++b) {
      const auto h = q.hidden_codes({a, b});
      if (h[0] == q.hidden_format.max_code()) saturated_case_seen = true;
      EXPECT_EQ(classify(sim, {a, b}), q.predict_codes({a, b}));
    }
  }
  EXPECT_TRUE(saturated_case_seen) << "test must cover the clamp branch";
}

TEST(MlpCircuit, ReluPathExercised) {
  // Strongly negative biases force ReLU zeroes.
  QuantizedMlp q = tiny_mlp(2, 2, 2, 3, 2);
  q.b1 = {-200, -200};
  MlpCircuit circuit = build_mlp_circuit(q);
  sim::CycleSimulator sim(circuit.module);
  for (std::int64_t a = 0; a <= 7; ++a) {
    const auto h = q.hidden_codes({a, 7 - a});
    EXPECT_EQ(h[0], 0);
    EXPECT_EQ(classify(sim, {a, 7 - a}), q.predict_codes({a, 7 - a}));
  }
}

TEST(ApproximateMlp, TruncatesWeightCsd) {
  QuantizedMlp q = tiny_mlp(3, 3, 3, 3, 3);
  q.w1 = {{7, -7, 5}, {5, 7, -5}, {-7, 5, 7}};
  const QuantizedMlp approx = approximate_mlp_csd(q, 1);
  for (const auto& row : approx.w1) {
    for (const auto w : row) {
      EXPECT_LE(fixed::csd_cost(w), 1);
    }
  }
  // Approximate circuit matches the approximate model.
  MlpCircuit circuit = build_mlp_circuit(approx);
  sim::CycleSimulator sim(circuit.module);
  for (std::int64_t a = 0; a <= 7; ++a) {
    EXPECT_EQ(
        classify(sim, {a, 3, 7 - a}), approx.predict_codes({a, 3, 7 - a}));
  }
}

}  // namespace
}  // namespace pml::arch
