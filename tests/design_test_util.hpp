#pragma once
// Small generated designs shared by the differential tests: random
// quantized SVM and MLP models for every generator, random netlists whose
// DFFs close feedback loops, and a free-running toggle flop.

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "pml/fixed/format.hpp"
#include "pml/netlist/module.hpp"
#include "pml/quant/formats.hpp"
#include "pml/quant/mlp_quant.hpp"
#include "pml/quant/svm_quant.hpp"

namespace pml::testutil {

using netlist::CellType;
using netlist::Module;
using netlist::NetId;

inline std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

inline quant::QuantizedSvm random_svm(int classes, int features,
                                      std::uint64_t seed) {
  quant::QuantizedSvm q;
  q.strategy = ml::MulticlassStrategy::kOneVsRest;
  q.num_classes = classes;
  q.input_format = quant::input_format(3);
  q.weight_format =
      fixed::FixedFormat{.total_bits = 4, .frac_bits = 3, .is_signed = true};
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ull + 1;
  for (int k = 0; k < classes; ++k) {
    quant::QuantizedClassifier c;
    for (int j = 0; j < features; ++j) {
      c.w.push_back(-8 + static_cast<std::int64_t>(xorshift(s) % 16));
    }
    c.b = -8 + static_cast<std::int64_t>(xorshift(s) % 17);
    q.classifiers.push_back(std::move(c));
  }
  return q;
}

inline quant::QuantizedMlp random_mlp(int inputs, int hidden, int outputs,
                                      std::uint64_t seed) {
  quant::QuantizedMlp q;
  q.num_inputs = inputs;
  q.num_hidden = hidden;
  q.num_outputs = outputs;
  q.input_format = quant::input_format(3);
  q.w1_format =
      fixed::FixedFormat{.total_bits = 4, .frac_bits = 3, .is_signed = true};
  q.hidden_format =
      fixed::FixedFormat{.total_bits = 4, .frac_bits = 4, .is_signed = false};
  q.w2_format =
      fixed::FixedFormat{.total_bits = 4, .frac_bits = 3, .is_signed = true};
  q.hidden_shift = 3;
  std::uint64_t s = seed ^ 0x5555AAAAull;
  const auto rand_w = [&s] {
    return -8 + static_cast<std::int64_t>(xorshift(s) % 16);
  };
  q.w1.assign(static_cast<std::size_t>(hidden), {});
  q.b1.assign(static_cast<std::size_t>(hidden), 0);
  for (int i = 0; i < hidden; ++i) {
    for (int j = 0; j < inputs; ++j) {
      q.w1[static_cast<std::size_t>(i)].push_back(rand_w());
    }
    q.b1[static_cast<std::size_t>(i)] = rand_w() * 4;
  }
  q.w2.assign(static_cast<std::size_t>(outputs), {});
  q.b2.assign(static_cast<std::size_t>(outputs), 0);
  for (int k = 0; k < outputs; ++k) {
    for (int i = 0; i < hidden; ++i) {
      q.w2[static_cast<std::size_t>(k)].push_back(rand_w());
    }
    q.b2[static_cast<std::size_t>(k)] = rand_w() * 2;
  }
  return q;
}

/// Random netlist over feature ports x0..x{features-1} (3 bits each) whose
/// DFFs close feedback loops: each DFF's D is driven, after the gates are
/// built, from any net — its own Q and other Qs included — so its state
/// can depend on the whole input history.
inline Module random_dff_module(std::uint64_t seed, int features, int gates,
                                int dffs) {
  Module m("rand");
  std::uint64_t s = seed * 2654435761u + 1;
  const auto below = [&s](std::size_t n) {
    return static_cast<std::size_t>(xorshift(s) % n);
  };
  std::vector<NetId> pool;
  for (int j = 0; j < features; ++j) {
    for (const NetId n :
         m.add_input_port(std::string("x").append(std::to_string(j)), 3)) {
      pool.push_back(n);
    }
  }
  std::vector<NetId> d_nets;
  for (int i = 0; i < dffs; ++i) {
    d_nets.push_back(m.new_net());
    pool.push_back(m.dff(d_nets.back(), (xorshift(s) & 1) != 0));
  }
  static constexpr CellType kComb[] = {
      CellType::kInv,  CellType::kNand2, CellType::kNor2,
      CellType::kAnd2, CellType::kOr2,   CellType::kXor2,
      CellType::kXnor2, CellType::kMux2};
  for (int i = 0; i < gates; ++i) {
    const CellType t = kComb[below(std::size(kComb))];
    const NetId a = pool[below(pool.size())];
    const NetId b = pool[below(pool.size())];
    const NetId sel = pool[below(pool.size())];
    const int arity = netlist::cell_num_inputs(t);
    pool.push_back(arity == 1   ? m.add_gate_raw(t, a)
                   : arity == 2 ? m.add_gate_raw(t, a, b)
                                : m.add_gate_raw(t, a, b, sel));
  }
  for (const NetId d : d_nets) m.drive_net(d, pool[below(pool.size())]);
  m.add_output_port("y", std::vector<NetId>(pool.end() - 6, pool.end()));
  return m;
}

/// A free-running toggle flop (D = NOT Q) gating the inputs: its state
/// after an inference depends on how many inferences came before, not on
/// the last input.
inline Module toggle_flop_module() {
  Module m("toggle");
  const std::vector<NetId> x = m.add_input_port("x0", 3);
  const NetId d = m.new_net();
  const NetId q = m.dff(d);
  m.drive_net(d, m.inv(q));
  m.add_output_port("y", {m.and2(q, x[0]), m.xor2(q, x[1]), m.or2(x[2], q)});
  return m;
}

}  // namespace pml::testutil
