// Parallel bespoke SVM circuits (the MICRO'20 / TCAD'23 baselines):
// exhaustive bit-exactness for OvO and OvR, vote semantics, approximation
// effects on area.

#include <gtest/gtest.h>

#include <string>

#include "pml/arch/parallel_svm.hpp"
#include "pml/sim/cycle_sim.hpp"

namespace pml::arch {
namespace {

using quant::QuantizedClassifier;
using quant::QuantizedSvm;

QuantizedSvm tiny_ovo(int classes, int features, int input_bits,
                      int weight_bits, std::uint64_t seed) {
  QuantizedSvm q;
  q.strategy = ml::MulticlassStrategy::kOneVsOne;
  q.num_classes = classes;
  q.input_format = quant::input_format(input_bits);
  q.weight_format = fixed::FixedFormat{.total_bits = weight_bits,
                                       .frac_bits = weight_bits - 1,
                                       .is_signed = true};
  std::uint64_t s = seed ^ 0xABCDEF123ull;
  auto next = [&s]() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  const std::int64_t wmin = q.weight_format.min_code();
  const std::int64_t wmax = q.weight_format.max_code();
  for (int i = 0; i < classes; ++i) {
    for (int j = i + 1; j < classes; ++j) {
      q.pairs.emplace_back(i, j);
      QuantizedClassifier c;
      for (int f = 0; f < features; ++f) {
        c.w.push_back(wmin + static_cast<std::int64_t>(
                                 next() % static_cast<std::uint64_t>(
                                              wmax - wmin + 1)));
      }
      c.b = -4 + static_cast<std::int64_t>(next() % 9);
      q.classifiers.push_back(std::move(c));
    }
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

class OvoShape : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(OvoShape, BitExactExhaustive) {
  const auto [classes, features, input_bits] = GetParam();
  const QuantizedSvm q =
      tiny_ovo(classes, features, input_bits, 4,
               static_cast<std::uint64_t>(classes * 7 + features));
  ParallelSvmCircuit circuit = build_parallel_svm(q);
  ASSERT_EQ(circuit.module.validate(), std::nullopt);
  EXPECT_EQ(circuit.cycles_per_inference, 1);
  EXPECT_EQ(circuit.module.stats().num_dffs, 0u) << "pure combinational";
  sim::CycleSimulator sim(circuit.module);

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
    EXPECT_EQ(classify(sim, xq), q.predict_codes(xq)) << "input " << idx;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, OvoShape,
    ::testing::Values(std::make_tuple(2, 2, 3), std::make_tuple(3, 2, 2),
                      std::make_tuple(3, 3, 2), std::make_tuple(4, 2, 2),
                      std::make_tuple(5, 2, 2), std::make_tuple(6, 1, 3)));

TEST(ParallelOvr, BitExactExhaustive) {
  QuantizedSvm q = tiny_ovo(4, 2, 2, 4, 99);
  // Rebrand as OvR (4 classifiers = 4 classes... build a proper OvR).
  q.strategy = ml::MulticlassStrategy::kOneVsRest;
  q.num_classes = static_cast<int>(q.classifiers.size());
  q.pairs.clear();
  ParallelSvmCircuit circuit = build_parallel_svm(q);
  ASSERT_EQ(circuit.module.validate(), std::nullopt);
  sim::CycleSimulator sim(circuit.module);
  for (std::int64_t a = 0; a <= 3; ++a) {
    for (std::int64_t b = 0; b <= 3; ++b) {
      EXPECT_EQ(classify(sim, {a, b}), q.predict_codes({a, b}));
    }
  }
}

TEST(ParallelSvm, ZeroDecisionVotesSecondClass) {
  // One pair (0,1), all-zero weights and bias: decision == 0 -> class 1.
  QuantizedSvm q;
  q.strategy = ml::MulticlassStrategy::kOneVsOne;
  q.num_classes = 2;
  q.input_format = quant::input_format(2);
  q.weight_format =
      fixed::FixedFormat{.total_bits = 4, .frac_bits = 3, .is_signed = true};
  q.pairs = {{0, 1}};
  q.classifiers = {QuantizedClassifier{{0, 0}, 0}};
  ParallelSvmCircuit circuit = build_parallel_svm(q);
  sim::CycleSimulator sim(circuit.module);
  EXPECT_EQ(classify(sim, {3, 3}), 1);
  EXPECT_EQ(q.predict_codes({3, 3}), 1);
}

TEST(ParallelSvm, ApproximationShrinksCircuit) {
  const QuantizedSvm exact = tiny_ovo(5, 6, 6, 8, 17);
  const QuantizedSvm approx = quant::approximate_svm_csd(exact, 1);
  const auto c_exact = build_parallel_svm(exact);
  const auto c_approx = build_parallel_svm(approx);
  EXPECT_LT(c_approx.module.cells().size(), c_exact.module.cells().size());
  // And the approximate circuit still matches ITS model exactly.
  sim::CycleSimulator sim(c_approx.module);
  std::uint64_t s = 5;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::int64_t> xq;
    for (int j = 0; j < 6; ++j) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      xq.push_back(static_cast<std::int64_t>((s >> 33) % 64));
    }
    EXPECT_EQ(classify(sim, xq), approx.predict_codes(xq));
  }
}

TEST(ParallelSvm, ZeroWeightsCostNothing) {
  QuantizedSvm q;
  q.strategy = ml::MulticlassStrategy::kOneVsOne;
  q.num_classes = 2;
  q.input_format = quant::input_format(3);
  q.weight_format =
      fixed::FixedFormat{.total_bits = 4, .frac_bits = 3, .is_signed = true};
  q.pairs = {{0, 1}};
  q.classifiers = {QuantizedClassifier{{0, 0, 0, 5}, 2}};
  const auto sparse = build_parallel_svm(q);
  q.classifiers = {QuantizedClassifier{{3, -3, 5, 5}, 2}};
  const auto dense = build_parallel_svm(q);
  EXPECT_LT(sparse.module.cells().size(), dense.module.cells().size());
}

TEST(ParallelSvm, ChainAndTreeAccumulatorsAgree) {
  const QuantizedSvm q = tiny_ovo(3, 4, 3, 5, 31);
  ParallelSvmOptions chain_opts;
  chain_opts.accumulator = Accumulator::kChain;
  ParallelSvmOptions tree_opts;
  tree_opts.accumulator = Accumulator::kTree;
  auto c_chain = build_parallel_svm(q, chain_opts);
  auto c_tree = build_parallel_svm(q, tree_opts);
  sim::CycleSimulator s_chain(c_chain.module);
  sim::CycleSimulator s_tree(c_tree.module);
  std::uint64_t s = 3;
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<std::int64_t> xq;
    for (int j = 0; j < 4; ++j) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      xq.push_back(static_cast<std::int64_t>((s >> 33) % 8));
    }
    EXPECT_EQ(classify(s_chain, xq), classify(s_tree, xq));
    EXPECT_EQ(classify(s_chain, xq), q.predict_codes(xq));
  }
}

TEST(ParallelSvm, OvoHasMoreHardwareThanOvrForManyClasses) {
  // Same class count and feature count: OvO instantiates n(n-1)/2 blocks
  // vs n for OvR — the paper's core storage argument.
  const int classes = 6, features = 4;
  QuantizedSvm ovo = tiny_ovo(classes, features, 3, 5, 23);
  QuantizedSvm ovr = ovo;
  ovr.strategy = ml::MulticlassStrategy::kOneVsRest;
  ovr.pairs.clear();
  ovr.classifiers.resize(static_cast<std::size_t>(classes));
  ovr.num_classes = classes;
  const auto c_ovo = build_parallel_svm(ovo);
  const auto c_ovr = build_parallel_svm(ovr);
  EXPECT_GT(c_ovo.module.cells().size(), c_ovr.module.cells().size() * 3 / 2);
}

}  // namespace
}  // namespace pml::arch
