// BatchSimulator: randomized lane-by-lane bit-identity against the scalar
// CycleSimulator on every generated architecture (sequential SVM, parallel
// SVM, MLP), ragged final batches, back-to-back free-running inference,
// per-lane toggle accounting, and the threaded verify_workload driver.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "pml/arch/mlp_circuit.hpp"
#include "pml/arch/parallel_svm.hpp"
#include "pml/arch/sequential_svm.hpp"
#include "pml/core/verify.hpp"
#include "pml/sim/batch_sim.hpp"
#include "pml/sim/cycle_sim.hpp"

namespace pml::sim {
namespace {

using netlist::Module;
using quant::QuantizedClassifier;
using quant::QuantizedMlp;
using quant::QuantizedSvm;

constexpr std::size_t kLanes = BatchSimulator::kLanes;

// --- deterministic model generators (same style as the arch tests) ----------

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

QuantizedMlp random_mlp(int inputs, int hidden, int outputs, int input_bits,
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
  auto rand_w = [&s]() {
    return -8 + static_cast<std::int64_t>(xorshift(s) % 16);
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

std::vector<std::vector<std::int64_t>> random_samples(std::size_t count,
                                                      int features,
                                                      std::int64_t max_code,
                                                      std::uint64_t seed) {
  std::uint64_t s = seed | 1;
  std::vector<std::vector<std::int64_t>> samples(count);
  for (auto& row : samples) {
    for (int j = 0; j < features; ++j) {
      row.push_back(static_cast<std::int64_t>(
          xorshift(s) % static_cast<std::uint64_t>(max_code + 1)));
    }
  }
  return samples;
}

/// Drive scalar and batch simulators with the same sample stream (batch
/// packs kLanes samples per pass, scalar replays them one by one — both
/// free-running, no reset between samples/batches) and require every
/// output port to agree on every sample.  For `cycles` == 0 the circuit is
/// combinational and settled once per sample.
void expect_lanewise_equal(const Module& m, int cycles,
                           const std::vector<std::vector<std::int64_t>>& xs) {
  const auto lv = levelize_shared(m);
  CycleSimulator scalar(m, lv);
  BatchSimulator batch(m, lv);
  const std::size_t features = xs[0].size();
  std::vector<const netlist::Port*> ports;
  for (std::size_t j = 0; j < features; ++j) {
    ports.push_back(m.find_input(std::string("x").append(std::to_string(j))));
    ASSERT_NE(ports.back(), nullptr);
  }
  std::uint64_t lane_values[kLanes];
  for (std::size_t begin = 0; begin < xs.size(); begin += kLanes) {
    const std::size_t count = std::min(kLanes, xs.size() - begin);
    batch.set_active_lanes(count);
    for (std::size_t j = 0; j < features; ++j) {
      for (std::size_t lane = 0; lane < count; ++lane) {
        lane_values[lane] =
            static_cast<std::uint64_t>(xs[begin + lane][j]);
      }
      batch.set_port(*ports[j], lane_values, count);
    }
    if (cycles == 0) {
      batch.propagate();
    } else {
      for (int c = 0; c < cycles; ++c) batch.step();
    }
    for (std::size_t lane = 0; lane < count; ++lane) {
      for (std::size_t j = 0; j < features; ++j) {
        scalar.set_port(*ports[j],
                        static_cast<std::uint64_t>(xs[begin + lane][j]));
      }
      if (cycles == 0) {
        scalar.propagate();
      } else {
        for (int c = 0; c < cycles; ++c) scalar.step();
      }
      for (const netlist::Port& out : m.output_ports()) {
        EXPECT_EQ(batch.port_unsigned(out, lane), scalar.port_unsigned(out))
            << "port '" << out.name << "' diverges on sample "
            << begin + lane;
      }
    }
  }
}

// --- lane-by-lane equivalence across architectures ---------------------------

TEST(BatchSim, SequentialSvmMatchesScalarLaneByLane) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const QuantizedSvm q =
        random_svm(3 + static_cast<int>(seed % 3), 4, 3, 4, seed);
    const auto circuit = arch::build_sequential_svm(q);
    // 150 samples: two full batches plus a ragged 22-lane final batch.
    const auto xs =
        random_samples(150, 4, q.input_format.max_code(), seed * 77);
    expect_lanewise_equal(circuit.module, circuit.cycles_per_inference, xs);
  }
}

TEST(BatchSim, ParallelSvmMatchesScalarLaneByLane) {
  const QuantizedSvm q = random_svm(4, 3, 3, 4, 11);
  const auto circuit = arch::build_parallel_svm(q);
  const auto xs = random_samples(100, 3, q.input_format.max_code(), 99);
  expect_lanewise_equal(circuit.module, /*cycles=*/0, xs);
}

TEST(BatchSim, MlpMatchesScalarLaneByLane) {
  const QuantizedMlp q = random_mlp(3, 4, 3, 3, 21);
  const auto circuit = arch::build_mlp_circuit(q);
  const auto xs = random_samples(100, 3, q.input_format.max_code(), 123);
  expect_lanewise_equal(circuit.module, /*cycles=*/0, xs);
}

TEST(BatchSim, BackToBackFreeRunningMatchesSoftwareModel) {
  // Three consecutive batches through ONE simulator, no reset: the
  // sequential SVM must classify every batch correctly from whatever state
  // the previous batch left behind (the paper's free-running protocol).
  const QuantizedSvm q = random_svm(5, 4, 3, 4, 31);
  const auto circuit = arch::build_sequential_svm(q);
  const auto xs = random_samples(3 * kLanes, 4, q.input_format.max_code(), 7);
  BatchSimulator batch(circuit.module);
  const netlist::Port* cls = circuit.module.find_output("class");
  ASSERT_NE(cls, nullptr);
  std::uint64_t lane_values[kLanes];
  for (std::size_t begin = 0; begin < xs.size(); begin += kLanes) {
    for (std::size_t j = 0; j < 4; ++j) {
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        lane_values[lane] = static_cast<std::uint64_t>(xs[begin + lane][j]);
      }
      batch.set_port(std::string("x").append(std::to_string(j)), lane_values,
                     kLanes);
    }
    for (int c = 0; c < circuit.cycles_per_inference; ++c) batch.step();
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      EXPECT_EQ(static_cast<int>(batch.port_unsigned(*cls, lane)),
                q.predict_codes(xs[begin + lane]))
          << "sample " << begin + lane;
    }
  }
  EXPECT_EQ(batch.cycles(),
            3u * static_cast<std::uint64_t>(circuit.cycles_per_inference));
}

// --- toggle accounting -------------------------------------------------------

TEST(BatchSim, SingleActiveLaneTogglesMatchScalarExactly) {
  const QuantizedSvm q = random_svm(3, 3, 3, 4, 41);
  const auto circuit = arch::build_sequential_svm(q);
  const auto lv = levelize_shared(circuit.module);
  CycleSimulator scalar(circuit.module, lv);
  BatchSimulator batch(circuit.module, lv);
  batch.set_active_lanes(1);
  const auto xs = random_samples(5, 3, q.input_format.max_code(), 17);
  for (const auto& x : xs) {
    for (std::size_t j = 0; j < x.size(); ++j) {
      const auto code = static_cast<std::uint64_t>(x[j]);
      scalar.set_port(std::string("x").append(std::to_string(j)), code);
      batch.set_port(std::string("x").append(std::to_string(j)), &code, 1);
    }
    for (int c = 0; c < circuit.cycles_per_inference; ++c) {
      scalar.step();
      batch.step();
    }
  }
  // With one active lane the masked popcounts must reproduce the scalar
  // functional toggle counts net for net.
  EXPECT_EQ(batch.toggles(), scalar.toggles());
}

TEST(BatchSim, InactiveLanesDoNotPolluteToggles) {
  const QuantizedSvm q = random_svm(3, 3, 3, 4, 43);
  const auto circuit = arch::build_sequential_svm(q);
  BatchSimulator one(circuit.module);
  BatchSimulator noisy(circuit.module);
  one.set_active_lanes(1);
  noisy.set_active_lanes(1);
  const auto xs = random_samples(kLanes, 3, q.input_format.max_code(), 5);
  std::uint64_t lane_values[kLanes];
  for (std::size_t j = 0; j < 3; ++j) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      lane_values[lane] = static_cast<std::uint64_t>(xs[lane][j]);
    }
    // `one` sees only lane 0's sample; `noisy` additionally carries 63
    // churning inactive lanes.
    one.set_port(std::string("x").append(std::to_string(j)), lane_values, 1);
    noisy.set_port(std::string("x").append(std::to_string(j)), lane_values,
                   kLanes);
  }
  for (int c = 0; c < circuit.cycles_per_inference; ++c) {
    one.step();
    noisy.step();
  }
  EXPECT_EQ(one.toggles(), noisy.toggles());
}

// --- API edges ---------------------------------------------------------------

TEST(BatchSim, BroadcastAndSignedReads) {
  Module m;
  const auto p = m.add_input_port("p", 4);
  m.add_output_port("y", {p[0], p[1], p[2], p[3]});
  BatchSimulator sim(m);
  sim.set_port_broadcast("p", 0b1000);
  sim.propagate();
  for (const std::size_t lane : {std::size_t{0}, std::size_t{63}}) {
    EXPECT_EQ(sim.port_unsigned("y", lane), 0b1000u);
    EXPECT_EQ(sim.port_signed("y", lane), -8);
  }
}

TEST(BatchSim, DffInitAndReset) {
  Module m;
  const auto d = m.add_input_port("d", 1)[0];
  m.add_output_port("q", {m.dff(d, /*init=*/true)});
  BatchSimulator sim(m);
  const netlist::NetId q = m.find_output("q")->nets[0];
  EXPECT_EQ(sim.net_chunk(q, 0), ~std::uint64_t{0});
  const std::uint64_t low[BatchSimulator::kChunks] = {};
  sim.set_net_chunks(d, low);
  sim.step();
  EXPECT_EQ(sim.net_chunk(q, 0), 0u);
  sim.reset();
  EXPECT_EQ(sim.net_chunk(q, 0), ~std::uint64_t{0});
  EXPECT_EQ(sim.cycles(), 0u);
}

TEST(BatchSim, BoundsChecks) {
  Module m;
  (void)m.add_input_port("p", 1);
  BatchSimulator sim(m);
  EXPECT_THROW(sim.set_active_lanes(0), std::out_of_range);
  EXPECT_THROW(sim.set_active_lanes(65), std::out_of_range);
  EXPECT_THROW(sim.set_port("nope", nullptr, 0), std::invalid_argument);
  EXPECT_THROW((void)sim.port_unsigned("nope", 0), std::invalid_argument);
  EXPECT_THROW((void)sim.port_unsigned("p", kLanes), std::out_of_range);
  EXPECT_THROW(BatchSimulator(m, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace pml::sim

// --- verify_workload ---------------------------------------------------------

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

CircuitWorkload exhaustive_workload(const QuantizedSvm& q, int repeats) {
  CircuitWorkload wl;
  for (int r = 0; r < repeats; ++r) {
    for (std::int64_t a = 0; a <= 7; ++a) {
      for (std::int64_t b = 0; b <= 7; ++b) {
        wl.feature_codes.push_back({a, b});
        wl.expected_class.push_back(q.predict_codes({a, b}));
      }
    }
  }
  return wl;
}

TEST(VerifyWorkload, PassesOnCorrectWorkloadRaggedBatch) {
  const auto q = small_model();
  auto circuit = arch::build_sequential_svm(q);
  // 3 * 64 = 192 samples = exactly 3 batches; 2 repeats = 128 + ragged.
  const auto wl = exhaustive_workload(q, 2);  // 128 samples
  const VerifyResult r =
      verify_workload(circuit.module, circuit.cycles_per_inference, wl);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.samples, 128u);
  EXPECT_EQ(r.mismatches, 0u);
  EXPECT_FALSE(r.first.has_value());
}

TEST(VerifyWorkload, DetectsPlantedMismatch) {
  const auto q = small_model();
  auto circuit = arch::build_sequential_svm(q);
  auto wl = exhaustive_workload(q, 2);
  wl.expected_class[70] = (wl.expected_class[70] + 1) % 3;  // second batch
  VerifyOptions opts;
  opts.num_threads = 1;
  const VerifyResult r = verify_workload(
      circuit.module, circuit.cycles_per_inference, wl, opts);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.mismatches, 1u);
  ASSERT_TRUE(r.first.has_value());
  EXPECT_EQ(r.first->sample, 70u);
  EXPECT_EQ(r.first->expected, wl.expected_class[70]);
  EXPECT_NE(r.first->predicted, r.first->expected);
}

TEST(VerifyWorkload, MultiThreadAgreesWithSingleThread) {
  const auto q = small_model();
  auto circuit = arch::build_parallel_svm(q);
  auto wl = exhaustive_workload(q, 5);  // 320 samples = 5 batches
  for (const std::size_t s : {std::size_t{3}, std::size_t{200}}) {
    wl.expected_class[s] = (wl.expected_class[s] + 1) % 3;
  }
  VerifyOptions single;
  single.num_threads = 1;
  VerifyOptions multi;
  multi.num_threads = 4;
  const VerifyResult a = verify_workload(
      circuit.module, circuit.cycles_per_inference, wl, single);
  const VerifyResult b = verify_workload(
      circuit.module, circuit.cycles_per_inference, wl, multi);
  EXPECT_EQ(a.mismatches, 2u);
  EXPECT_EQ(b.mismatches, 2u);
  ASSERT_TRUE(a.first.has_value());
  ASSERT_TRUE(b.first.has_value());
  EXPECT_EQ(a.first->sample, 3u);
  EXPECT_EQ(b.first->sample, 3u);
}

TEST(VerifyWorkload, FailFastCapStopsScheduling) {
  const auto q = small_model();
  auto circuit = arch::build_sequential_svm(q);
  auto wl = exhaustive_workload(q, 2);
  for (auto& e : wl.expected_class) e = (e + 1) % 3;  // nothing matches...
  VerifyOptions opts;
  opts.num_threads = 1;
  opts.max_mismatches = 1;
  // Pin the 64-lane reference backend so "the second batch" exists: a
  // wider backend would scan this whole workload in one batch.
  opts.backend = sim::Backend::kU64;
  const VerifyResult r = verify_workload(
      circuit.module, circuit.cycles_per_inference, wl, opts);
  EXPECT_FALSE(r.ok());
  // One full batch is still scanned, but the second is never scheduled.
  EXPECT_LE(r.mismatches, sim::BatchSimulator::kLanes);
  EXPECT_GE(r.mismatches, 1u);
}

TEST(VerifyWorkload, SharedLevelizationAndMalformedWorkloads) {
  const auto q = small_model();
  auto circuit = arch::build_sequential_svm(q);
  VerifyOptions opts;
  opts.levelization = sim::levelize_shared(circuit.module);
  const auto wl = exhaustive_workload(q, 1);
  EXPECT_TRUE(verify_workload(circuit.module, circuit.cycles_per_inference,
                              wl, opts)
                  .ok());
  CircuitWorkload empty;
  EXPECT_THROW(
      (void)verify_workload(circuit.module, 3, empty),
      std::invalid_argument);
  CircuitWorkload lopsided;
  lopsided.feature_codes = {{1, 2}};
  EXPECT_THROW(
      (void)verify_workload(circuit.module, 3, lopsided),
      std::invalid_argument);
  CircuitWorkload ragged;
  ragged.feature_codes = {{1, 2}, {5}};
  ragged.expected_class = {0, 1};
  EXPECT_THROW(
      (void)verify_workload(circuit.module, 3, ragged),
      std::invalid_argument);
}

}  // namespace
}  // namespace pml::core
