// pml::opt: every pass alone and the full fixpoint pipeline must be
// bit-exact against the unoptimized module — proven lane by lane with
// sim::BatchSimulator on randomized netlists (combinational and
// DFF-bearing, including drive_net feedback loops and ragged final
// batches) and on every generated architecture.  Plus per-pass unit
// behavior (constants through DFFs, buffer/inverter chains, raw-cell CSE,
// DFF sharing, dead sweeps) and the Table I acceptance bar: >= 10% cell
// reduction on the paper's sequential SVM with verification still green.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "pml/arch/mlp_circuit.hpp"
#include "pml/arch/parallel_svm.hpp"
#include "pml/arch/sequential_mlp.hpp"
#include "pml/arch/sequential_svm.hpp"
#include "pml/core/flow.hpp"
#include "pml/ml/multiclass.hpp"
#include "pml/ml/scaler.hpp"
#include "pml/ml/synthetic_datasets.hpp"
#include "pml/opt/cost_model.hpp"
#include "pml/opt/optimizer.hpp"
#include "pml/opt/pass_manager.hpp"
#include "pml/quant/svm_quant.hpp"
#include "pml/sim/batch_sim.hpp"
#include "pml/sim/levelize.hpp"

namespace pml::opt {
namespace {

using netlist::CellType;
using netlist::kConst0;
using netlist::kConst1;
using netlist::Module;
using netlist::NetId;
using quant::QuantizedClassifier;
using quant::QuantizedMlp;
using quant::QuantizedSvm;
using sim::BatchSimulator;

constexpr std::size_t kLanes = BatchSimulator::kLanes;

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

// --- lane-by-lane equivalence of two modules with identical port lists ------

/// Drive both modules with the same random per-lane stimulus (fresh values
/// every cycle, so DFF state trajectories are exercised, free-running
/// across batches with no reset) and require every output port to agree in
/// every lane after every cycle.  `samples` != multiple of 64 exercises
/// ragged final batches.
void expect_equivalent(const Module& a, const Module& b, std::size_t samples,
                       int cycles, std::uint64_t seed) {
  ASSERT_EQ(a.input_ports().size(), b.input_ports().size());
  ASSERT_EQ(a.output_ports().size(), b.output_ports().size());
  for (std::size_t p = 0; p < a.input_ports().size(); ++p) {
    ASSERT_EQ(a.input_ports()[p].name, b.input_ports()[p].name);
    ASSERT_EQ(a.input_ports()[p].nets.size(), b.input_ports()[p].nets.size());
  }
  for (std::size_t p = 0; p < a.output_ports().size(); ++p) {
    ASSERT_EQ(a.output_ports()[p].name, b.output_ports()[p].name);
    ASSERT_EQ(a.output_ports()[p].nets.size(),
              b.output_ports()[p].nets.size());
  }

  BatchSimulator sim_a(a);
  BatchSimulator sim_b(b);
  std::uint64_t s = seed | 1;
  std::uint64_t lane_values[kLanes];
  const int steps = std::max(cycles, 1);
  for (std::size_t begin = 0; begin < samples; begin += kLanes) {
    const std::size_t count = std::min(kLanes, samples - begin);
    sim_a.set_active_lanes(count);
    sim_b.set_active_lanes(count);
    for (int cyc = 0; cyc < steps; ++cyc) {
      for (std::size_t p = 0; p < a.input_ports().size(); ++p) {
        const std::size_t width = a.input_ports()[p].nets.size();
        const std::uint64_t mask =
            width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
        for (std::size_t lane = 0; lane < count; ++lane) {
          lane_values[lane] = xorshift(s) & mask;
        }
        sim_a.set_port(a.input_ports()[p], lane_values, count);
        sim_b.set_port(b.input_ports()[p], lane_values, count);
      }
      sim_a.propagate();
      sim_b.propagate();
      for (std::size_t p = 0; p < a.output_ports().size(); ++p) {
        for (std::size_t lane = 0; lane < count; ++lane) {
          ASSERT_EQ(sim_a.port_unsigned(a.output_ports()[p], lane),
                    sim_b.port_unsigned(b.output_ports()[p], lane))
              << "port '" << a.output_ports()[p].name << "' diverges, sample "
              << begin + lane << ", cycle " << cyc;
        }
      }
      if (cycles > 0) {
        sim_a.step();
        sim_b.step();
      }
    }
  }
}

// --- randomized netlist generator -------------------------------------------

/// A messy but valid module: mixed add_gate/add_gate_raw cells (raw cells
/// dodge creation-time folding/CSE, so constants, duplicates, and
/// buffer/inverter chains survive into the netlist), constant pins,
/// optional DFFs with drive_net feedback loops, and some dead logic.
Module random_module(std::uint64_t seed, bool with_dffs) {
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ull + 1;
  Module m(std::string("rand").append(std::to_string(seed)));
  std::vector<NetId> pool{kConst0, kConst1};

  const int num_ports = 2 + static_cast<int>(xorshift(s) % 3);
  for (int p = 0; p < num_ports; ++p) {
    const int width = 2 + static_cast<int>(xorshift(s) % 3);
    for (NetId n : m.add_input_port(std::string("x").append(std::to_string(p)),
                                    width)) {
      pool.push_back(n);
    }
  }

  std::vector<NetId> feedback;
  if (with_dffs) {
    const int loops = 1 + static_cast<int>(xorshift(s) % 3);
    for (int k = 0; k < loops; ++k) {
      const NetId f = m.new_net();
      feedback.push_back(f);
      pool.push_back(m.dff(f, (xorshift(s) & 1) != 0));
    }
  }

  auto pick = [&]() { return pool[xorshift(s) % pool.size()]; };
  const int num_gates = 40 + static_cast<int>(xorshift(s) % 40);
  for (int g = 0; g < num_gates; ++g) {
    const int what = static_cast<int>(xorshift(s) % 100);
    if (with_dffs && what < 8) {
      pool.push_back(m.dff(pick(), (xorshift(s) & 1) != 0));
      continue;
    }
    static constexpr CellType kTypes[] = {
        CellType::kInv,  CellType::kBuf,  CellType::kNand2,
        CellType::kNor2, CellType::kAnd2, CellType::kOr2,
        CellType::kXor2, CellType::kXnor2, CellType::kMux2};
    const CellType type = kTypes[xorshift(s) % 9];
    const NetId a = pick();
    const NetId b = netlist::cell_num_inputs(type) >= 2 ? pick() : netlist::kInvalidNet;
    const NetId sel = netlist::cell_num_inputs(type) >= 3 ? pick() : netlist::kInvalidNet;
    const NetId out = (xorshift(s) & 1) != 0
                          ? m.add_gate_raw(type, a, b, sel)
                          : m.add_gate(type, a, b, sel);
    pool.push_back(out);
  }
  for (const NetId f : feedback) m.drive_net(f, pick());

  // Outputs sample the pool; everything unreferenced is dead on purpose.
  std::vector<NetId> outs;
  for (int k = 0; k < 8; ++k) outs.push_back(pick());
  m.add_output_port("y", outs);
  return m;
}

// --- deterministic model generators (same style as the sim tests) -----------

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
      c.w.push_back(wmin +
                    static_cast<std::int64_t>(
                        xorshift(s) %
                        static_cast<std::uint64_t>(wmax - wmin + 1)));
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

const OptOptions kNoOpt{.enabled = false};

// --- per-pass randomized equivalence ----------------------------------------

using PassFn = PassDelta (*)(Module&);

void check_pass_on_random_modules(PassFn pass) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    for (const bool with_dffs : {false, true}) {
      const Module raw = random_module(seed, with_dffs);
      ASSERT_EQ(raw.validate(), std::nullopt);
      Module optd = raw;
      (void)pass(optd);
      ASSERT_EQ(optd.validate(), std::nullopt) << "seed " << seed;
      // 150 samples = two full batches + a ragged 22-lane batch.
      expect_equivalent(raw, optd, 150, with_dffs ? 5 : 0, seed * 31);
    }
  }
}

TEST(OptPass, ConstantPropagationIsBitExact) {
  check_pass_on_random_modules(&propagate_constants);
}

TEST(OptPass, BufferChainCollapseIsBitExact) {
  check_pass_on_random_modules(&collapse_buffer_chains);
}

TEST(OptPass, StructuralHashIsBitExact) {
  check_pass_on_random_modules(&hash_structural);
}

TEST(OptPass, DeadSweepIsBitExact) {
  check_pass_on_random_modules(&sweep_dead);
}

TEST(OptPass, RebalanceTreesIsBitExact) {
  check_pass_on_random_modules(&rebalance_trees);
}

TEST(OptPass, RebalanceTreesBalancesChainsWithoutAddingCells) {
  // A skewed 8-leaf AND chain: depth 7 -> 3, same cell count, bit-exact.
  Module m("t");
  const auto x = m.add_input_port("x", 8);
  NetId n = x[0];
  for (int i = 1; i < 8; ++i) {
    n = m.add_gate_raw(CellType::kAnd2, n, x[static_cast<std::size_t>(i)]);
  }
  m.add_output_port("y", {n});
  Module raw = m;
  const std::size_t cells_before = m.cells().size();

  const PassDelta delta = rebalance_trees(m);
  EXPECT_EQ(delta.cells_added, cells_before);  // rebuilt one-for-one
  EXPECT_EQ(delta.cells_removed, cells_before);
  EXPECT_EQ(m.cells().size(), cells_before);
  ASSERT_EQ(m.validate(), std::nullopt);

  // Unit depth of the output net must now be ceil(log2(8)) = 3.
  const auto lv = sim::levelize(m);
  EXPECT_EQ(lv.max_depth, 3u);
  expect_equivalent(raw, m, 150, 0, 777);

  // Idempotent: a balanced tree offers no strict improvement.
  const PassDelta again = rebalance_trees(m);
  EXPECT_FALSE(again.changed());
}

TEST(OptPass, RebalanceSkipsMultiFanoutInteriors) {
  // The interior AND feeds a second output: breaking it apart would
  // change observable structure, so only trees over single-fanout
  // interiors may be rebuilt.
  Module m("t");
  const auto x = m.add_input_port("x", 4);
  const NetId i1 = m.add_gate_raw(CellType::kAnd2, x[0], x[1]);
  const NetId i2 = m.add_gate_raw(CellType::kAnd2, i1, x[2]);
  const NetId i3 = m.add_gate_raw(CellType::kAnd2, i2, x[3]);
  m.add_output_port("y", {i3});
  m.add_output_port("tap", {i2});  // i2 is multi-fanout: a tree leaf now
  Module raw = m;
  const PassDelta delta = rebalance_trees(m);
  // The only candidate tree (root i3) has leaves {i2, x3}: too small.
  EXPECT_FALSE(delta.changed());
  expect_equivalent(raw, m, 100, 0, 13);
}

TEST(OptPipeline, FixpointIsBitExactOnRandomModules) {
  for (const std::uint64_t seed : {11ull, 12ull, 13ull, 14ull, 15ull}) {
    for (const bool with_dffs : {false, true}) {
      const Module raw = random_module(seed, with_dffs);
      Module optd = raw;
      const OptReport report = optimize(optd);
      ASSERT_EQ(optd.validate(), std::nullopt) << "seed " << seed;
      EXPECT_LE(report.after.num_cells, report.before.num_cells);
      expect_equivalent(raw, optd, 150, with_dffs ? 6 : 0, seed * 17);
    }
  }
}

// --- per-pass unit behavior ---------------------------------------------------

TEST(OptPass, ConstantsPropagateThroughGatesAndDffs) {
  Module m("t");
  const auto x = m.add_input_port("x", 2);
  // AND(x0, 0) = 0, OR(0, x1) = x1 — raw gates dodge creation folding.
  const NetId g = m.add_gate_raw(CellType::kAnd2, x[0], kConst0);
  const NetId y = m.add_gate_raw(CellType::kOr2, g, x[1]);
  // DFF whose D is tied to its power-on value never changes...
  const NetId q0 = m.dff(kConst0, false);
  // ...and a DFF fed from a constant-q0 DFF collapses on the next sweep.
  const NetId q1 = m.dff(q0, false);
  m.add_output_port("y", {y, q1});

  Module raw = m;
  const OptReport report = optimize(m);
  EXPECT_EQ(m.stats().num_cells, 0u);  // everything melted into wires
  EXPECT_EQ(m.stats().num_dffs, 0u);
  EXPECT_GE(report.iterations, 1);
  expect_equivalent(raw, m, 100, 4, 9);
}

TEST(OptPass, ConstantPropagationFoldsSelfLoopDff) {
  Module m("t");
  const auto x = m.add_input_port("x", 1);
  const NetId f = m.new_net();
  const NetId q = m.dff(f, true);
  m.drive_net(f, q);  // D == Q: holds the power-on 1 forever
  m.add_output_port("y", {m.add_gate_raw(CellType::kAnd2, x[0], q)});
  Module raw = m;
  (void)optimize(m);
  EXPECT_EQ(m.stats().num_dffs, 0u);
  EXPECT_EQ(m.stats().num_cells, 0u);  // AND(x, 1) = x
  expect_equivalent(raw, m, 100, 3, 5);
}

TEST(OptPass, BufferAndInverterChainsCollapse) {
  Module m("t");
  const auto x = m.add_input_port("x", 1);
  NetId n = x[0];
  for (int i = 0; i < 4; ++i) n = m.add_gate_raw(CellType::kBuf, n);
  for (int i = 0; i < 4; ++i) n = m.add_gate_raw(CellType::kInv, n);
  m.add_output_port("y", {n});
  Module raw = m;
  const OptReport report = optimize(m);
  EXPECT_EQ(m.stats().num_cells, 0u);  // even parity: y == x
  EXPECT_GT(report.cells_removed(), 0u);
  expect_equivalent(raw, m, 100, 0, 21);
}

TEST(OptPass, InversionPushThroughAbsorbsSingleFanoutInverters) {
  Module m("t");
  const auto x = m.add_input_port("x", 2);
  // INV(NAND(a,b)) with single fanout retypes to AND(a,b).
  const NetId g = m.add_gate_raw(CellType::kNand2, x[0], x[1]);
  const NetId y = m.add_gate_raw(CellType::kInv, g);
  m.add_output_port("y", {y});
  Module raw = m;
  (void)optimize(m);
  EXPECT_EQ(m.stats().num_cells, 1u);
  EXPECT_EQ(m.cells()[0].type, CellType::kAnd2);
  expect_equivalent(raw, m, 100, 0, 33);
}

TEST(OptPass, StructuralHashMergesRawDuplicatesAndDffs) {
  Module m("t");
  const auto x = m.add_input_port("x", 3);
  // Identical raw MUX cells (creation-time CSE skipped on purpose).
  const NetId m1 = m.add_gate_raw(CellType::kMux2, x[0], x[1], x[2]);
  const NetId m2 = m.add_gate_raw(CellType::kMux2, x[0], x[1], x[2]);
  // DFFs sharing (D, init) merge; a differing init must survive.
  const NetId qa = m.dff(x[0], false);
  const NetId qb = m.dff(x[0], false);
  const NetId qc = m.dff(x[0], true);
  m.add_output_port("y", {m1, m2, qa, qb, qc});
  Module raw = m;
  (void)optimize(m);
  EXPECT_EQ(m.stats().num_cells, 3u);  // one MUX + two DFFs
  EXPECT_EQ(m.stats().num_dffs, 2u);
  expect_equivalent(raw, m, 100, 4, 41);
}

TEST(OptPass, DeadSweepRemovesUnreadLogicAndKeepsPorts) {
  Module m("t");
  const auto x = m.add_input_port("x", 2);
  const NetId live = m.add_gate_raw(CellType::kXor2, x[0], x[1]);
  // A dead cone incl. a dead flop: nothing downstream reads it.
  const NetId d1 = m.add_gate_raw(CellType::kAnd2, x[0], x[1]);
  const NetId d2 = m.add_gate_raw(CellType::kOr2, d1, x[0]);
  (void)m.dff(d2, false);
  m.add_output_port("y", {live});
  Module raw = m;
  const std::size_t nets_before = m.num_nets();
  PassDelta delta = sweep_dead(m);
  EXPECT_EQ(delta.cells_removed, 3u);
  EXPECT_EQ(delta.dffs_removed, 1u);
  EXPECT_GT(delta.nets_removed, 0u);
  EXPECT_LT(m.num_nets(), nets_before);
  EXPECT_EQ(m.input_ports().size(), 1u);   // unread PI bits survive
  EXPECT_EQ(m.input_ports()[0].nets.size(), 2u);
  ASSERT_EQ(m.validate(), std::nullopt);
  expect_equivalent(raw, m, 100, 0, 57);
}

// --- pipeline properties ------------------------------------------------------

TEST(OptPipeline, DisabledIsANoOp) {
  Module m = random_module(3, true);
  const Module before = m;
  const OptReport report = optimize(m, kNoOpt);
  EXPECT_EQ(report.deltas.size(), 0u);
  EXPECT_EQ(m.stats().num_cells, before.stats().num_cells);
  EXPECT_EQ(m.num_nets(), before.num_nets());
}

TEST(OptPipeline, DeterministicAcrossRuns) {
  for (const std::uint64_t seed : {5ull, 6ull}) {
    Module a = random_module(seed, true);
    Module b = random_module(seed, true);
    (void)optimize(a);
    (void)optimize(b);
    ASSERT_EQ(a.cells().size(), b.cells().size());
    for (std::size_t i = 0; i < a.cells().size(); ++i) {
      EXPECT_EQ(a.cells()[i].type, b.cells()[i].type);
      EXPECT_EQ(a.cells()[i].out, b.cells()[i].out);
      EXPECT_EQ(a.cells()[i].in[0], b.cells()[i].in[0]);
      EXPECT_EQ(a.cells()[i].in[1], b.cells()[i].in[1]);
      EXPECT_EQ(a.cells()[i].group, b.cells()[i].group);
    }
  }
}

TEST(OptPipeline, ReportAccountingIsConsistent) {
  Module m = random_module(7, true);
  const OptReport report = optimize(m);
  std::size_t removed = 0;
  for (const PassDelta& d : report.deltas) removed += d.cells_removed;
  EXPECT_EQ(removed, report.cells_removed());
  std::size_t by_pass = 0;
  for (const PassDelta& d : report.totals_by_pass()) {
    by_pass += d.cells_removed;
  }
  EXPECT_EQ(by_pass, report.cells_removed());
  EXPECT_EQ(report.after.num_cells, m.stats().num_cells);
}

// --- generated architectures: raw vs optimized --------------------------------

TEST(OptPipeline, SequentialSvmRawVsOptimized) {
  for (const std::uint64_t seed : {1ull, 2ull}) {
    const QuantizedSvm q =
        random_svm(3 + static_cast<int>(seed % 3), 4, 3, 4, seed);
    const auto raw = arch::build_sequential_svm(q, kNoOpt);
    const auto optd = arch::build_sequential_svm(q);
    EXPECT_LT(optd.module.stats().num_cells, raw.module.stats().num_cells);
    expect_equivalent(raw.module, optd.module, 150,
                      raw.cycles_per_inference, seed * 91);
  }
}

TEST(OptPipeline, ParallelSvmRawVsOptimized) {
  const QuantizedSvm q = random_svm(4, 3, 3, 4, 11);
  arch::ParallelSvmOptions raw_opts;
  raw_opts.opt = kNoOpt;
  const auto raw = arch::build_parallel_svm(q, raw_opts);
  const auto optd = arch::build_parallel_svm(q);
  EXPECT_LE(optd.module.stats().num_cells, raw.module.stats().num_cells);
  expect_equivalent(raw.module, optd.module, 150, 0, 77);
}

TEST(OptPipeline, MlpRawVsOptimized) {
  const QuantizedMlp q = random_mlp(3, 4, 3, 3, 21);
  const auto raw = arch::build_mlp_circuit(q, kNoOpt);
  const auto optd = arch::build_mlp_circuit(q);
  EXPECT_LE(optd.module.stats().num_cells, raw.module.stats().num_cells);
  expect_equivalent(raw.module, optd.module, 150, 0, 13);
}

TEST(OptPipeline, SequentialMlpRawVsOptimized) {
  const QuantizedMlp q = random_mlp(3, 3, 3, 3, 35);
  const auto raw = arch::build_sequential_mlp(q, kNoOpt);
  const auto optd = arch::build_sequential_mlp(q);
  EXPECT_LT(optd.module.stats().num_cells, raw.module.stats().num_cells);
  expect_equivalent(raw.module, optd.module, 150,
                    raw.cycles_per_inference, 3);
}

// --- flow recipes ------------------------------------------------------------

std::vector<std::string> pass_names(const FlowRecipe& flow) {
  std::vector<std::string> names;
  for (const Pass& pass : flow.passes) names.push_back(pass.name);
  return names;
}

TEST(FlowRecipes, RoundTripByName) {
  for (const FlowRecipe& flow : standard_flows()) {
    EXPECT_EQ(&flow_recipe(flow.name), &flow);
  }
  // "area" must remain the PR 4 pipeline, "energy" the CSE+DCE-only
  // composition, and "none" empty.
  EXPECT_EQ(pass_names(flow_recipe("area")),
            (std::vector<std::string>{"constant-propagation",
                                      "buffer-chain-collapse",
                                      "structural-hash", "dead-sweep"}));
  EXPECT_EQ(pass_names(flow_recipe("energy")),
            (std::vector<std::string>{"structural-hash", "dead-sweep"}));
  EXPECT_TRUE(flow_recipe("none").passes.empty());
  EXPECT_TRUE(flow_recipe("balanced").cost_driven);
}

TEST(FlowRecipes, EveryPassReportsUnderItsRecipeName) {
  // A recipe pairs each name with its function by hand; the pass's own
  // delta label catches a mismatched pair.
  for (const FlowRecipe& flow : standard_flows()) {
    for (const Pass& pass : flow.passes) {
      Module m = random_module(23, true);
      ASSERT_NE(pass.run, nullptr) << flow.name << "/" << pass.name;
      EXPECT_EQ(pass.run(m).pass, pass.name) << flow.name;
    }
  }
}

TEST(FlowRecipes, UnknownFlowNameThrows) {
  EXPECT_THROW((void)flow_recipe("no-such-flow"), std::invalid_argument);
  Module m = random_module(3, true);
  OptOptions opts;
  opts.flow = "no-such-flow";
  EXPECT_THROW((void)optimize(m, opts), std::invalid_argument);
  // "best" is a selection policy, not a recipe.
  EXPECT_THROW((void)flow_recipe("best"), std::invalid_argument);
}

TEST(FlowRecipes, EveryRecipeIsBitExactOnRandomModules) {
  for (const FlowRecipe& flow : standard_flows()) {
    for (const std::uint64_t seed : {21ull, 22ull}) {
      const Module raw = random_module(seed, true);
      Module optd = raw;
      OptOptions opts;
      opts.flow = flow.name;
      const OptReport report = optimize(optd, opts);
      EXPECT_EQ(report.recipe, flow.name);
      ASSERT_EQ(optd.validate(), std::nullopt)
          << flow.name << " seed " << seed;
      expect_equivalent(raw, optd, 150, 6, seed * 7 + 1);
    }
  }
}

// --- cost-driven accept/reject ------------------------------------------------

namespace {

/// Adversarial model: rewards *more* cells, so every shrinking pass must
/// be rejected by a cost-driven recipe.
class PreferMoreCells final : public CostModel {
 public:
  [[nodiscard]] double cost(const netlist::Module& m) const override {
    return 1e9 - static_cast<double>(m.cells().size());
  }
};

/// Indifferent model: every candidate costs the same, so every recipe
/// ties under "best".
class ConstantCost final : public CostModel {
 public:
  [[nodiscard]] double cost(const netlist::Module&) const override {
    return 1.0;
  }
};

}  // namespace

TEST(OptimizeCost, RejectsApplicationsTheModelDislikes) {
  Module m = random_module(9, true);
  const Module before = m;
  const PreferMoreCells adversarial;
  const OptReport report = optimize(m, {.flow = "balanced"}, &adversarial);
  // Shrinking applications were rejected and reverted...
  EXPECT_FALSE(report.rejected.empty());
  // ...and whatever was accepted never reduced the cell count.
  EXPECT_GE(m.cells().size(), before.cells().size());
  for (const PassDelta& d : report.deltas) {
    EXPECT_GE(d.cells_added + d.cells_retyped, d.cells_removed);
  }
}

TEST(OptimizeCost, AcceptRejectTraceIsDeterministic) {
  const cells::CellLibrary lib = cells::CellLibrary::egfet();
  for (const std::uint64_t seed : {31ull, 32ull}) {
    Module a = random_module(seed, true);
    Module b = random_module(seed, true);
    // A switching-energy model over a deterministic probe.
    ProbeWorkload probe;
    probe.cycles_per_inference = 2;
    std::uint64_t s = seed | 1;
    for (int i = 0; i < 16; ++i) {
      std::vector<std::uint64_t> row;
      for (const auto& port : a.input_ports()) {
        const std::uint64_t mask =
            (std::uint64_t{1} << port.nets.size()) - 1;
        row.push_back(xorshift(s) & mask);
      }
      probe.samples.push_back(std::move(row));
    }
    const SwitchingEnergyCost cost(lib, probe);
    const OptReport ra = optimize(a, {.flow = "balanced"}, &cost);
    const OptReport rb = optimize(b, {.flow = "balanced"}, &cost);
    EXPECT_EQ(ra.rejected, rb.rejected);
    EXPECT_EQ(ra.deltas.size(), rb.deltas.size());
    EXPECT_DOUBLE_EQ(ra.cost_after, rb.cost_after);
    ASSERT_EQ(a.cells().size(), b.cells().size());
    for (std::size_t i = 0; i < a.cells().size(); ++i) {
      EXPECT_EQ(a.cells()[i].type, b.cells()[i].type);
      EXPECT_EQ(a.cells()[i].out, b.cells()[i].out);
    }
    // Cost never worsens along an accepted trajectory (tolerance 0).
    EXPECT_LE(ra.cost_after, ra.cost_before);
  }
}

TEST(OptimizeCost, BestFlowPicksTheCheapestRecipe) {
  Module m = random_module(41, true);
  const CellCountCost cell_count;
  Module best_m = m;
  const OptReport best = optimize(best_m, {.flow = kBestFlow}, &cell_count);
  // Under the cell-count model the winner can never have more cells than
  // any single recipe's result — including "area".
  Module area_m = m;
  OptOptions area_opts;
  area_opts.flow = "area";
  (void)optimize(area_m, area_opts);
  EXPECT_LE(best_m.cells().size(), area_m.cells().size());
  EXPECT_FALSE(best.recipe.empty());
  expect_equivalent(m, best_m, 150, 5, 99);
}

TEST(OptimizeCost, BestFlowTieGoesToTheFirstRecipeAndSumsTheBill) {
  const Module m = random_module(43, true);
  const ConstantCost constant;
  Module best_m = m;
  const OptReport best = optimize(best_m, {.flow = kBestFlow}, &constant);
  const FlowRecipe& first = standard_flows().front();
  EXPECT_EQ(best.recipe, first.name);
  // The winner's module and trace are the first recipe's own...
  Module first_m = m;
  const OptReport alone = optimize(first_m, {.flow = first.name}, &constant);
  EXPECT_EQ(best_m.stats().num_cells, first_m.stats().num_cells);
  EXPECT_EQ(best.deltas.size(), alone.deltas.size());
  // ...but the probe count is the bill of every recipe tried.
  std::uint64_t probes = 0;
  for (const FlowRecipe& flow : standard_flows()) {
    Module copy = m;
    probes += optimize(copy, {.flow = flow.name}, &constant).cost_probes;
  }
  EXPECT_EQ(best.cost_probes, probes);
  EXPECT_GT(best.cost_probes, alone.cost_probes);
}

// --- growth-safe report accounting --------------------------------------------

TEST(OptReportGrowth, UnderflowGuardsAndSignedDelta) {
  OptReport r;
  r.before.num_cells = 5;
  r.before.num_dffs = 2;
  r.after.num_cells = 9;  // a restructuring pass grew the module
  r.after.num_dffs = 3;
  EXPECT_EQ(r.cells_removed(), 0u);  // clamped, no size_t wraparound
  EXPECT_EQ(r.dffs_removed(), 0u);
  EXPECT_EQ(r.cell_delta(), 4);
  EXPECT_LT(r.cell_reduction(), 0.0);  // sign-correct for growth
  r.after.num_cells = 3;
  r.after.num_dffs = 1;
  EXPECT_EQ(r.cells_removed(), 2u);
  EXPECT_EQ(r.dffs_removed(), 1u);
  EXPECT_EQ(r.cell_delta(), -2);
  EXPECT_GT(r.cell_reduction(), 0.0);
}

TEST(OptReportGrowth, AddedCellsBalanceTheBooks) {
  // On a chain-heavy module the balanced recipe exercises rebalance
  // (adds cells) alongside the shrinking passes; the stats identity
  //   before - after == sum(removed) - sum(added)
  // must hold across all of it.
  Module m("t");
  const auto x = m.add_input_port("x", 8);
  NetId n = x[0];
  for (int i = 1; i < 8; ++i) {
    n = m.add_gate_raw(CellType::kXor2, n, x[static_cast<std::size_t>(i)]);
  }
  m.add_output_port("y", {n});
  OptOptions opts;
  opts.flow = "balanced";
  const OptReport report = optimize(m, opts);
  std::ptrdiff_t removed = 0, added = 0;
  for (const PassDelta& d : report.deltas) {
    removed += static_cast<std::ptrdiff_t>(d.cells_removed);
    added += static_cast<std::ptrdiff_t>(d.cells_added);
  }
  EXPECT_EQ(static_cast<std::ptrdiff_t>(report.before.num_cells) -
                static_cast<std::ptrdiff_t>(report.after.num_cells),
            removed - added);
  EXPECT_GT(added, 0);  // the chain really was rebuilt
}

// --- the Table I acceptance bar ----------------------------------------------

TEST(OptPipeline, TableOneSequentialSvmReducesTenPercentBitExact) {
  // The paper's sequential SVM on the Cardio profile (the bench_batch_sim
  // circuit): >= 10% of cells must melt, and the optimized module must
  // still verify bit-exact against the quantized software model over the
  // real workload.
  const ml::Dataset raw_ds = ml::make_uci_like(ml::UciProfile::kCardio);
  const ml::Split split =
      ml::stratified_split(raw_ds, 0.8, ml::kDefaultDataSeed ^ 0x5eed);
  ml::MinMaxScaler scaler;
  scaler.fit(split.train);
  const ml::Dataset train = scaler.transform(split.train);
  const ml::Dataset test = scaler.transform(split.test);
  ml::MulticlassTrainOptions topts;
  topts.base.seed = 7;
  const auto model = ml::train_one_vs_rest(train, topts);
  const auto q = quant::quantize_svm(model, 4, 5);

  const auto raw = arch::build_sequential_svm(q, kNoOpt);
  Module optimized = raw.module;
  const OptReport report = optimize(optimized);

  EXPECT_GE(report.cell_reduction(), 0.10)
      << report.before.num_cells << " -> " << report.after.num_cells;

  const core::CircuitWorkload wl = core::make_svm_workload(q, test);
  for (const Module* m :
       std::initializer_list<const Module*>{&raw.module, &optimized}) {
    const core::VerifyResult vr =
        core::verify_workload(*m, raw.cycles_per_inference, wl, {});
    EXPECT_TRUE(vr.ok()) << vr.mismatches << " mismatches";
  }
  expect_equivalent(raw.module, optimized, 150, raw.cycles_per_inference,
                    1234);
}

}  // namespace
}  // namespace pml::opt
