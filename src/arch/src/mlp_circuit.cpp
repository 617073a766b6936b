#include "pml/arch/mlp_circuit.hpp"

#include <string>
#include <vector>

#include "pml/arch/sequential_svm.hpp"  // group-name constants
#include "pml/fixed/csd.hpp"
#include "pml/synth/arith.hpp"
#include "pml/synth/mult.hpp"
#include "pml/synth/mux.hpp"
#include "pml/synth/reduce.hpp"

namespace pml::arch {

using netlist::Module;
using netlist::NetId;
using synth::Bus;

quant::QuantizedMlp approximate_mlp_csd(quant::QuantizedMlp model,
                                        int max_csd_digits) {
  auto truncate_all = [max_csd_digits](std::vector<std::vector<std::int64_t>>& w) {
    for (auto& row : w) {
      for (auto& v : row) {
        v = fixed::csd_value(
            fixed::csd_truncate(fixed::csd_recode(v), max_csd_digits));
      }
    }
  };
  truncate_all(model.w1);
  truncate_all(model.w2);
  return model;
}

MlpCircuit build_mlp_circuit(const quant::QuantizedMlp& model,
                             const opt::OptOptions& opt_options) {
  const int m = model.num_inputs;
  const int h = model.num_hidden;
  const int n = model.num_outputs;
  const int bx = model.input_format.total_bits;
  const int bh = model.hidden_format.total_bits;
  const int acc1_bits = model.layer1_acc_bits();
  const int acc2_bits = model.layer2_acc_bits();

  MlpCircuit out;
  out.module = Module("par_mlp_" + std::to_string(m) + "_" +
                      std::to_string(h) + "_" + std::to_string(n));
  Module& mod = out.module;

  std::vector<Bus> x;
  x.reserve(static_cast<std::size_t>(m));
  for (int j = 0; j < m; ++j) {
    x.push_back(Bus{
        mod.add_input_port(std::string("x").append(std::to_string(j)), bx)});
  }

  mod.begin_group(kGroupCompute);
  // --- layer 1 + ReLU + requantization -------------------------------------
  std::vector<Bus> hidden;
  hidden.reserve(static_cast<std::size_t>(h));
  for (int i = 0; i < h; ++i) {
    const auto is = static_cast<std::size_t>(i);
    std::vector<Bus> terms;
    for (int j = 0; j < m; ++j) {
      const std::int64_t w = model.w1[is][static_cast<std::size_t>(j)];
      if (w == 0) continue;
      terms.push_back(
          synth::mult_const_csd(mod, w, x[static_cast<std::size_t>(j)]));
    }
    terms.push_back(synth::constant_bus(model.b1[is], acc1_bits));
    // Linear accumulation chain, like the published bespoke MLP generator
    // (hence the baseline's few-Hz clock).
    Bus acc = synth::sext(synth::adder_chain_signed(mod, terms), acc1_bits);
    // ReLU: clear every bit when the sign is set.
    const NetId keep = mod.inv(acc.msb());
    Bus relu;
    for (int b = 0; b < acc.width(); ++b) {
      relu.bits.push_back(mod.and2(acc[b], keep));
    }
    // Requantize: drop `hidden_shift` LSBs (pure wiring), then saturate
    // into bh unsigned bits: if any higher bit survives, clamp to max.
    Bus shifted = model.hidden_shift > 0
                      ? synth::drop_lsbs(relu, model.hidden_shift)
                      : relu;
    Bus low = synth::zext(shifted, bh);
    if (shifted.width() > bh) {
      low = synth::slice(shifted, 0, bh);
      const Bus high = synth::slice(shifted, bh, shifted.width() - bh);
      const NetId sat = synth::reduce_or(mod, high);
      Bus clamped;
      for (int b = 0; b < bh; ++b) {
        clamped.bits.push_back(mod.or2(low[b], sat));
      }
      low = clamped;
    }
    hidden.push_back(low);
  }

  // --- layer 2 ---------------------------------------------------------------
  std::vector<Bus> logits;
  logits.reserve(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    std::vector<Bus> terms;
    for (int i = 0; i < h; ++i) {
      const std::int64_t w = model.w2[ks][static_cast<std::size_t>(i)];
      if (w == 0) continue;
      terms.push_back(
          synth::mult_const_csd(mod, w, hidden[static_cast<std::size_t>(i)]));
    }
    terms.push_back(synth::constant_bus(model.b2[ks], acc2_bits));
    logits.push_back(
        synth::sext(synth::adder_chain_signed(mod, terms), acc2_bits));
  }
  mod.end_group();

  mod.begin_group(kGroupVoter);
  const Bus cls = synth::argmax_signed(mod, logits).index;
  mod.end_group();

  out.class_bits = cls.width();
  mod.add_output_port("class", cls.bits);
  out.opt = opt::optimize(mod, opt_options);
  return out;
}

}  // namespace pml::arch
