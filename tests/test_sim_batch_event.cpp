// BatchEventSimulator: randomized lane-by-lane bit-identity of the 64-way
// SWAR delay-accurate engine against the scalar EventSimulator oracle —
// per-net transition counts (including glitches), DFF clock events, and
// functional outputs — on every generated architecture (sequential SVM,
// parallel SVM, MLP) and on random netlists; ragged (<64 lane) batches,
// back-to-back inference without reset, count masking, and the sharded
// core::collect_activity driver against the scalar per-sample reference.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pml/arch/mlp_circuit.hpp"
#include "pml/arch/parallel_svm.hpp"
#include "pml/arch/sequential_svm.hpp"
#include "pml/cells/library.hpp"
#include "pml/core/activity.hpp"
#include "pml/sim/batch_event_sim.hpp"
#include "pml/sim/cycle_sim.hpp"
#include "pml/sim/event_sim.hpp"

namespace pml::sim {
namespace {

using netlist::CellType;
using netlist::Module;
using netlist::NetId;
using quant::QuantizedClassifier;
using quant::QuantizedMlp;
using quant::QuantizedSvm;

constexpr std::size_t kLanes = BatchEventSimulator::kLanes;

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

/// Drive `lanes` back-to-back sample streams (no reset between rounds)
/// through one BatchEventSimulator and, lane by lane, through fresh scalar
/// EventSimulators, and require (a) every output port to agree on every
/// round and (b) the batch ActivityStats to equal the *sum* of the scalar
/// per-lane ActivityStats — toggles net for net, DFF clock events, and
/// cycles.  `cycles` == 0 settles once per round (combinational).
void expect_batch_event_equivalent(
    const Module& m, const cells::CellLibrary& lib, double quantum, int cycles,
    const std::vector<const netlist::Port*>& ports,
    const std::vector<std::vector<std::vector<std::int64_t>>>& streams) {
  const auto lv = levelize_shared(m);
  const std::size_t lanes = streams.size();
  ASSERT_GE(lanes, 1u);
  ASSERT_LE(lanes, kLanes);
  const std::size_t rounds = streams[0].size();

  BatchEventSimulator batch(m, lib, quantum, lv);
  std::uint64_t count_mask[BatchEventSimulator::kChunks];
  prefix_lane_mask(lanes, count_mask, BatchEventSimulator::kChunks);
  batch.set_count_mask_chunks(count_mask);
  // batch_outputs[round][lane][output port] observed after each round.
  std::vector<std::vector<std::vector<std::uint64_t>>> batch_outputs(rounds);
  std::uint64_t lane_values[kLanes];
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t j = 0; j < ports.size(); ++j) {
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        lane_values[lane] = static_cast<std::uint64_t>(streams[lane][r][j]);
      }
      batch.set_port(*ports[j], lane_values, lanes);
    }
    if (cycles == 0) {
      batch.settle();
    } else {
      for (int c = 0; c < cycles; ++c) batch.step();
    }
    batch_outputs[r].resize(lanes);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      for (const netlist::Port& out : m.output_ports()) {
        batch_outputs[r][lane].push_back(batch.port_unsigned(out, lane));
      }
    }
  }

  ActivityStats scalar_sum;
  scalar_sum.net_toggles.assign(m.num_nets(), 0);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    EventSimulator es(m, lib, quantum, lv);
    for (std::size_t r = 0; r < rounds; ++r) {
      for (std::size_t j = 0; j < ports.size(); ++j) {
        es.set_port(*ports[j],
                    static_cast<std::uint64_t>(streams[lane][r][j]));
      }
      if (cycles == 0) {
        es.settle();
      } else {
        for (int c = 0; c < cycles; ++c) es.step();
      }
      std::size_t p = 0;
      for (const netlist::Port& out : m.output_ports()) {
        EXPECT_EQ(batch_outputs[r][lane][p], es.port_unsigned(out.name))
            << "port '" << out.name << "' diverges on lane " << lane
            << " round " << r;
        ++p;
      }
    }
    scalar_sum.accumulate(es.activity());
  }

  EXPECT_EQ(batch.activity().net_toggles, scalar_sum.net_toggles);
  EXPECT_EQ(batch.activity().dff_clock_events, scalar_sum.dff_clock_events);
  EXPECT_EQ(batch.activity().cycles, scalar_sum.cycles);
  // The functional/glitch split must be lane-sum consistent too, and the
  // functional slice can never exceed the total per net.
  EXPECT_EQ(batch.activity().net_functional, scalar_sum.net_functional);
  ASSERT_EQ(batch.activity().net_functional.size(),
            batch.activity().net_toggles.size());
  for (std::size_t n = 0; n < batch.activity().net_toggles.size(); ++n) {
    EXPECT_LE(batch.activity().net_functional[n],
              batch.activity().net_toggles[n])
        << "net " << n << ": functional transitions exceed the total";
  }
}

std::vector<const netlist::Port*> feature_port_list(const Module& m,
                                                    std::size_t count) {
  std::vector<const netlist::Port*> ports;
  for (std::size_t j = 0; j < count; ++j) {
    const netlist::Port* p =
        m.find_input(std::string("x").append(std::to_string(j)));
    EXPECT_NE(p, nullptr);
    ports.push_back(p);
  }
  return ports;
}

/// Split flat samples into `lanes` streams of `rounds` samples each.
std::vector<std::vector<std::vector<std::int64_t>>> as_streams(
    const std::vector<std::vector<std::int64_t>>& samples, std::size_t lanes,
    std::size_t rounds) {
  std::vector<std::vector<std::vector<std::int64_t>>> streams(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    for (std::size_t r = 0; r < rounds; ++r) {
      streams[lane].push_back(samples[lane * rounds + r]);
    }
  }
  return streams;
}

// --- lane-by-lane equivalence across architectures ---------------------------

TEST(BatchEventSim, SequentialSvmMatchesScalarSum) {
  const auto lib = cells::CellLibrary::egfet();
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const QuantizedSvm q =
        random_svm(3 + static_cast<int>(seed % 3), 4, 3, 4, seed);
    const auto circuit = arch::build_sequential_svm(q);
    const auto xs =
        random_samples(kLanes * 3, 4, q.input_format.max_code(), seed * 77);
    expect_batch_event_equivalent(
        circuit.module, lib, 0.02, circuit.cycles_per_inference,
        feature_port_list(circuit.module, 4), as_streams(xs, kLanes, 3));
  }
}

TEST(BatchEventSim, SequentialSvmRaggedLanesMatchScalarSum) {
  const auto lib = cells::CellLibrary::egfet();
  const QuantizedSvm q = random_svm(4, 4, 3, 4, 17);
  const auto circuit = arch::build_sequential_svm(q);
  // 37 < 64 lanes: the count mask must keep the sum exact.
  const auto xs = random_samples(37 * 3, 4, q.input_format.max_code(), 311);
  expect_batch_event_equivalent(
      circuit.module, lib, 0.02, circuit.cycles_per_inference,
      feature_port_list(circuit.module, 4), as_streams(xs, 37, 3));
}

TEST(BatchEventSim, ParallelSvmMatchesScalarSum) {
  const auto lib = cells::CellLibrary::egfet();
  const QuantizedSvm q = random_svm(4, 3, 3, 4, 11);
  const auto circuit = arch::build_parallel_svm(q);
  const auto xs = random_samples(kLanes * 3, 3, q.input_format.max_code(), 99);
  expect_batch_event_equivalent(circuit.module, lib, 0.02, /*cycles=*/0,
                                feature_port_list(circuit.module, 3),
                                as_streams(xs, kLanes, 3));
}

TEST(BatchEventSim, MlpMatchesScalarSum) {
  const auto lib = cells::CellLibrary::egfet();
  const QuantizedMlp q = random_mlp(3, 4, 3, 3, 21);
  const auto circuit = arch::build_mlp_circuit(q);
  // 29 < 64 lanes, combinational.
  const auto xs = random_samples(29 * 3, 3, q.input_format.max_code(), 123);
  expect_batch_event_equivalent(circuit.module, lib, 0.02, /*cycles=*/0,
                                feature_port_list(circuit.module, 3),
                                as_streams(xs, 29, 3));
}

// --- random netlists (property test) ----------------------------------------

class BatchEventMatchesScalar : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(BatchEventMatchesScalar, ActivityAndOutputs) {
  const std::uint64_t seed = GetParam();
  const Module m = random_module(seed, 6, 60, 5);
  ASSERT_EQ(m.validate(), std::nullopt);
  const auto lib = cells::CellLibrary::egfet();
  const netlist::Port* x = m.find_input("x");
  ASSERT_NE(x, nullptr);
  // 16 lanes x 5 rounds of random 6-bit stimuli, clocked once per round.
  std::uint64_t s = seed ^ 0xABCDEF;
  std::vector<std::vector<std::vector<std::int64_t>>> streams(16);
  for (auto& stream : streams) {
    for (int r = 0; r < 5; ++r) {
      stream.push_back({static_cast<std::int64_t>(xorshift(s) & 0x3F)});
    }
  }
  expect_batch_event_equivalent(m, lib, 0.01, /*cycles=*/1, {x}, streams);
}

INSTANTIATE_TEST_SUITE_P(RandomNetlists, BatchEventMatchesScalar,
                         ::testing::Range<std::uint64_t>(1, 13));

// --- glitch counting ---------------------------------------------------------

TEST(BatchEventSim, CountsGlitchesLaneForLane) {
  // y = XOR(a, INV^10(a)): functionally constant 0, but every input edge
  // raises a glitch pulse on y in *every* lane that saw the edge.
  Module m;
  const auto a = m.add_input_port("a", 1)[0];
  auto n = a;
  for (int i = 0; i < 10; ++i) n = m.add_gate_raw(CellType::kInv, n);
  const auto y = m.add_gate_raw(CellType::kXor2, a, n);
  m.add_output_port("y", {y});
  const auto lib = cells::CellLibrary::egfet();

  EventSimulator scalar(m, lib, 0.01);
  BatchEventSimulator batch(m, lib, 0.01);
  for (int i = 0; i < 10; ++i) {
    const bool v = (i % 2) == 0;
    scalar.set_net(a, v);
    batch.set_port_broadcast("a", v ? 1 : 0);  // same edge in all lanes
    scalar.settle();
    batch.settle();
    EXPECT_EQ(scalar.port_unsigned("y"), 0u);
    for (const std::size_t lane : {std::size_t{0}, std::size_t{63}}) {
      EXPECT_EQ(batch.port_unsigned("y", lane), 0u);
    }
  }
  EXPECT_GE(scalar.activity().net_toggles[y], 20u);
  EXPECT_EQ(batch.activity().net_toggles[y],
            64u * scalar.activity().net_toggles[y])
      << "all 64 lanes must see exactly the scalar glitch train";
  // y is functionally constant 0: every one of its transitions is a
  // glitch.  The input a, by contrast, transitions exactly once per
  // settle and every one survives the window — purely functional.
  EXPECT_EQ(scalar.activity().net_functional[y], 0u);
  EXPECT_EQ(batch.activity().net_functional[y], 0u);
  EXPECT_EQ(scalar.activity().net_functional[a], 10u);
  EXPECT_EQ(scalar.activity().net_toggles[a], 10u);
  EXPECT_EQ(batch.activity().net_functional[a], 64u * 10u);
}

TEST(BatchEventSim, FunctionalSplitCountsSurvivingTransitionsExactly) {
  // y = AND(a, INV^6(a)): functionally y == a, and despite the heavily
  // skewed second pin the AND's controlling input masks the skew — on a
  // rise y waits for the slow pin, on a fall it follows the fast pin, so
  // the pulse train is glitch-free.  Every transition must therefore be
  // classified functional (the complement of the XOR case above, where
  // every transition is a glitch).
  Module m;
  const auto a = m.add_input_port("a", 1)[0];
  auto n = a;
  for (int i = 0; i < 6; ++i) n = m.add_gate_raw(CellType::kInv, n);
  const auto y = m.add_gate_raw(CellType::kAnd2, a, n);
  m.add_output_port("y", {y});
  const auto lib = cells::CellLibrary::egfet();

  EventSimulator scalar(m, lib, 0.01);
  for (int i = 0; i < 8; ++i) {
    scalar.set_net(a, (i % 2) == 0);
    scalar.settle();
    EXPECT_EQ(scalar.port_unsigned("y"), (i % 2) == 0 ? 1u : 0u);
  }
  // y settles to a new value on all 8 edges, one physical transition each.
  EXPECT_EQ(scalar.activity().net_functional[y], 8u);
  EXPECT_EQ(scalar.activity().net_toggles[y], 8u);
}

// Inputs staged twice before one settle() take both changes in staging
// order, as the scalar oracle does (its heap breaks time ties by
// scheduling order), lane by lane: a lane whose second bit restores its
// value toggles twice, one whose first bit equals its value toggles at
// most once.  Staging a whole port twice puts 16 events in the heap at
// time 0, so an oracle that popped ties in heap order would apply some
// first writes after second ones.
TEST(BatchEventSim, InputStagedTwiceMatchesScalar) {
  // y_i = XOR(x_i, INV^3(x_{i+1})) glitches on edges of either input.
  Module m;
  const auto x = m.add_input_port("x", 8);
  std::vector<NetId> ys;
  for (std::size_t i = 0; i < x.size(); ++i) {
    NetId n = x[(i + 1) % x.size()];
    for (int k = 0; k < 3; ++k) n = m.add_gate_raw(CellType::kInv, n);
    ys.push_back(m.add_gate_raw(CellType::kXor2, x[i], n));
  }
  m.add_output_port("y", ys);
  const auto lib = cells::CellLibrary::egfet();
  const netlist::Port& port = *m.find_input("x");

  BatchEventSimulator batch(m, lib, 0.01);
  std::vector<std::unique_ptr<EventSimulator>> scalar;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    scalar.push_back(std::make_unique<EventSimulator>(m, lib, 0.01));
  }
  std::uint64_t s = 77;
  std::uint64_t first[kLanes];
  std::uint64_t second[kLanes];
  for (int round = 0; round < 12; ++round) {
    // Every round mixes lanes whose two staged values are equal, differ,
    // restore the current value, or leave it alone.
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      first[lane] = xorshift(s) & 0xFF;
      second[lane] = (round + lane) % 3 == 0 ? first[lane] : xorshift(s) & 0xFF;
    }
    batch.set_port(port, first, kLanes);
    batch.set_port(port, second, kLanes);
    batch.settle();
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      scalar[lane]->set_port(port, first[lane]);
      scalar[lane]->set_port(port, second[lane]);
      scalar[lane]->settle();
      EXPECT_EQ(batch.port_unsigned("y", lane),
                scalar[lane]->port_unsigned("y"));
      EXPECT_EQ(batch.port_unsigned("x", lane),
                scalar[lane]->port_unsigned("x"));
    }
  }
  ActivityStats sum;
  for (const auto& sim : scalar) sum.accumulate(sim->activity());
  EXPECT_EQ(batch.activity().net_toggles, sum.net_toggles);
  EXPECT_EQ(batch.activity().net_functional, sum.net_functional);
  EXPECT_GT(sum.net_toggles[ys[0]], 0u);
}

// --- count masking -----------------------------------------------------------

TEST(BatchEventSim, CountMaskExcludesNoisyLanes) {
  const auto lib = cells::CellLibrary::egfet();
  const QuantizedSvm q = random_svm(3, 3, 3, 4, 43);
  const auto circuit = arch::build_sequential_svm(q);
  const auto ports = feature_port_list(circuit.module, 3);
  BatchEventSimulator quiet(circuit.module, lib, 0.02);
  BatchEventSimulator noisy(circuit.module, lib, 0.02);
  const std::uint64_t lane0[BatchEventSimulator::kChunks] = {1};
  quiet.set_count_mask_chunks(lane0);
  noisy.set_count_mask_chunks(lane0);
  const auto xs = random_samples(kLanes, 3, q.input_format.max_code(), 5);
  std::uint64_t lane_values[kLanes];
  for (std::size_t j = 0; j < 3; ++j) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      lane_values[lane] = static_cast<std::uint64_t>(xs[lane][j]);
    }
    // `quiet` sees only lane 0's sample; `noisy` additionally carries 63
    // churning uncounted lanes.
    quiet.set_port(*ports[j], lane_values, 1);
    noisy.set_port(*ports[j], lane_values, kLanes);
  }
  for (int c = 0; c < circuit.cycles_per_inference; ++c) {
    quiet.step();
    noisy.step();
  }
  EXPECT_EQ(quiet.activity().net_toggles, noisy.activity().net_toggles);
  EXPECT_EQ(quiet.activity().dff_clock_events,
            noisy.activity().dff_clock_events);
}

// --- API edges ---------------------------------------------------------------

TEST(BatchEventSim, DffInitAndReset) {
  Module m;
  const auto d = m.add_input_port("d", 1)[0];
  m.add_output_port("q", {m.dff(d, /*init=*/true)});
  const auto lib = cells::CellLibrary::egfet();
  BatchEventSimulator sim(m, lib);
  const NetId qn = m.find_output("q")->nets[0];
  EXPECT_EQ(sim.net_chunk(qn, 0), ~std::uint64_t{0});
  const std::uint64_t low[BatchEventSimulator::kChunks] = {};
  sim.set_net_chunks(d, low);
  sim.step();
  EXPECT_EQ(sim.net_chunk(qn, 0), 0u);
  EXPECT_GT(sim.activity().cycles, 0u);
  sim.reset();
  EXPECT_EQ(sim.net_chunk(qn, 0), ~std::uint64_t{0});
  EXPECT_EQ(sim.activity().cycles, 0u);
  EXPECT_EQ(sim.activity().dff_clock_events, 0u);
}

TEST(BatchEventSim, BroadcastAndSignedReads) {
  Module m;
  const auto p = m.add_input_port("p", 4);
  m.add_output_port("y", {p[0], p[1], p[2], p[3]});
  const auto lib = cells::CellLibrary::egfet();
  BatchEventSimulator sim(m, lib);
  sim.set_port_broadcast("p", 0b1000);
  sim.settle();
  for (const std::size_t lane : {std::size_t{0}, std::size_t{63}}) {
    EXPECT_EQ(sim.port_unsigned("y", lane), 0b1000u);
    EXPECT_EQ(sim.port_signed("y", lane), -8);
  }
}

TEST(BatchEventSim, BoundsChecks) {
  Module m;
  (void)m.add_input_port("p", 1);
  const auto lib = cells::CellLibrary::egfet();
  BatchEventSimulator sim(m, lib);
  EXPECT_THROW(sim.set_port("nope", nullptr, 0), std::invalid_argument);
  EXPECT_THROW((void)sim.port_unsigned("nope", 0), std::invalid_argument);
  EXPECT_THROW((void)sim.port_unsigned("p", kLanes), std::out_of_range);
  const std::uint64_t word[BatchEventSimulator::kChunks] = {};
  EXPECT_THROW(sim.set_net_chunks(99999, word), std::out_of_range);
  EXPECT_THROW(BatchEventSimulator(m, lib, 0.0), std::invalid_argument);
  EXPECT_THROW(BatchEventSimulator(m, lib, 0.01, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace pml::sim

// --- core::collect_activity --------------------------------------------------

namespace pml::core {
namespace {

using quant::QuantizedSvm;

/// The scalar reference protocol collect_activity must reproduce exactly,
/// one sample at a time: reset a scalar EventSimulator, run sample
/// (s - 1) mod n uncounted, then count sample s; sum over s.
sim::ActivityStats scalar_reference(const netlist::Module& m,
                                    const cells::CellLibrary& lib,
                                    int cycles_per_inference,
                                    const CircuitWorkload& wl, std::size_t n,
                                    double quantum) {
  const auto lv = sim::levelize_shared(m);
  const bool sequential = !lv->dffs.empty();
  const auto ports = feature_ports(m, wl.feature_codes[0].size());
  sim::ActivityStats sum;
  sum.net_toggles.assign(m.num_nets(), 0);
  sum.net_functional.assign(m.num_nets(), 0);
  sim::EventSimulator es(m, lib, quantum, lv);
  const auto apply = [&](std::size_t s) {
    for (std::size_t j = 0; j < ports.size(); ++j) {
      es.set_port(*ports[j], static_cast<std::uint64_t>(wl.feature_codes[s][j]));
    }
    if (sequential) {
      for (int c = 0; c < cycles_per_inference; ++c) es.step();
    } else {
      es.settle();
    }
  };
  for (std::size_t s = 0; s < n; ++s) {
    es.reset();
    apply((s + n - 1) % n);
    es.clear_activity();
    apply(s);
    sum.accumulate(es.activity());
  }
  return sum;
}

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

void expect_stats_equal(const sim::ActivityStats& a,
                        const sim::ActivityStats& b) {
  EXPECT_EQ(a.net_toggles, b.net_toggles);
  EXPECT_EQ(a.net_functional, b.net_functional);
  EXPECT_EQ(a.dff_clock_events, b.dff_clock_events);
  EXPECT_EQ(a.cycles, b.cycles);
}

TEST(CollectActivity, MatchesScalarReferenceSequential) {
  const auto lib = cells::CellLibrary::egfet();
  const auto q = small_model();
  const auto circuit = arch::build_sequential_svm(q);
  const auto wl = exhaustive_workload(q, 2);  // 128 samples
  ActivityOptions opts;
  opts.num_threads = 1;
  // n = 115 clips the workload (n < workload size) and leaves a ragged
  // second u64 batch of 51 lanes.
  const auto batch = collect_activity(circuit.module, lib,
                                      circuit.cycles_per_inference, wl, 115,
                                      opts);
  const auto ref =
      scalar_reference(circuit.module, lib, circuit.cycles_per_inference, wl,
                       115, kTimeQuantumMs);
  expect_stats_equal(batch, ref);
}

TEST(CollectActivity, MatchesScalarReferenceCombinational) {
  const auto lib = cells::CellLibrary::egfet();
  const auto q = small_model();
  const auto circuit = arch::build_parallel_svm(q);
  const auto wl = exhaustive_workload(q, 2);
  ActivityOptions opts;
  opts.num_threads = 1;
  const auto batch = collect_activity(circuit.module, lib, 1, wl, 120, opts);
  const auto ref =
      scalar_reference(circuit.module, lib, 1, wl, 120, kTimeQuantumMs);
  expect_stats_equal(batch, ref);
}

TEST(CollectActivity, MatchesScalarReferenceMlp) {
  const auto lib = cells::CellLibrary::egfet();
  const auto q = sim::random_mlp(3, 4, 3, 3, 77);
  const auto circuit = arch::build_mlp_circuit(q);
  CircuitWorkload wl;
  wl.feature_codes =
      sim::random_samples(100, 3, q.input_format.max_code(), 901);
  ActivityOptions opts;
  opts.num_threads = 1;
  const auto batch = collect_activity(circuit.module, lib, 1, wl, 100, opts);
  const auto ref =
      scalar_reference(circuit.module, lib, 1, wl, 100, kTimeQuantumMs);
  expect_stats_equal(batch, ref);
}

TEST(CollectActivity, ThreadCountDoesNotChangeTheCounts) {
  const auto lib = cells::CellLibrary::egfet();
  const auto q = small_model();
  const auto circuit = arch::build_sequential_svm(q);
  const auto wl = exhaustive_workload(q, 3);  // 192 samples: 3 batches
  ActivityOptions single;
  single.num_threads = 1;
  ActivityOptions multi = single;
  multi.num_threads = 4;
  const auto a = collect_activity(circuit.module, lib,
                                  circuit.cycles_per_inference, wl, 192,
                                  single);
  const auto b = collect_activity(circuit.module, lib,
                                  circuit.cycles_per_inference, wl, 192,
                                  multi);
  expect_stats_equal(a, b);
}

TEST(CollectActivity, RejectsBadWorkloads) {
  const auto lib = cells::CellLibrary::egfet();
  const auto q = small_model();
  const auto circuit = arch::build_sequential_svm(q);
  CircuitWorkload empty;
  EXPECT_THROW((void)collect_activity(circuit.module, lib, 3, empty, 10),
               std::invalid_argument);
  CircuitWorkload ragged;
  ragged.feature_codes = {{1, 2}, {5}};
  ragged.expected_class = {0, 1};
  EXPECT_THROW((void)collect_activity(circuit.module, lib, 3, ragged, 2),
               std::invalid_argument);
  const auto wl = exhaustive_workload(q, 1);
  EXPECT_THROW((void)collect_activity(circuit.module, lib, 3, wl, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace pml::core
