#include "pml/arch/sequential_mlp.hpp"

#include <string>
#include <vector>

#include "pml/arch/sequential_svm.hpp"  // group-name constants
#include "pml/synth/arith.hpp"
#include "pml/synth/mult.hpp"
#include "pml/synth/mux.hpp"
#include "pml/fixed/format.hpp"
#include "pml/synth/seq.hpp"

namespace pml::arch {

using netlist::kConst0;
using netlist::Module;
using netlist::NetId;
using synth::Bus;

namespace {

/// AND every bit with `enable` (operand isolation).
Bus gate_bus(Module& m, const Bus& bus, NetId enable) {
  Bus out;
  out.bits.reserve(bus.bits.size());
  for (const NetId n : bus.bits) out.bits.push_back(m.and2(n, enable));
  return out;
}

/// Two's complement width that holds every word.  CSD-truncated weights
/// can overshoot the nominal weight format by one power of two (e.g. +15
/// -> +16), so storage must size to the actual codes, not the format.
int width_for_words(const std::vector<std::int64_t>& words, int at_least) {
  int w = at_least;
  for (const std::int64_t v : words) {
    w = std::max(w, fixed::bits_for_code(v));
  }
  return w;
}

}  // namespace

SequentialMlpCircuit build_sequential_mlp(const quant::QuantizedMlp& model,
                                          const opt::OptOptions& opt_options) {
  const int m_in = model.num_inputs;
  const int h = model.num_hidden;
  const int n = model.num_outputs;
  const int bx = model.input_format.total_bits;
  const int bh = model.hidden_format.total_bits;
  const int bw1 = model.w1_format.total_bits;
  const int bw2 = model.w2_format.total_bits;
  const int acc1_bits = model.layer1_acc_bits();
  const int acc2_bits = model.layer2_acc_bits();
  const int cycles = h + n;

  SequentialMlpCircuit out;
  out.module = Module("seq_mlp_" + std::to_string(m_in) + "_" +
                      std::to_string(h) + "_" + std::to_string(n));
  Module& mod = out.module;
  out.cycles_per_inference = cycles;

  std::vector<Bus> x;
  x.reserve(static_cast<std::size_t>(m_in));
  for (int j = 0; j < m_in; ++j) {
    x.push_back(Bus{
        mod.add_input_port(std::string("x").append(std::to_string(j)), bx)});
  }

  // --- control: counter over h + n cycles, phase flag ----------------------
  mod.begin_group(kGroupControl);
  const synth::Counter ctr = synth::counter_mod(mod, cycles);
  // phase_b = count >= h.
  const NetId phase_b = synth::greater_equal_signed(
      mod, synth::zext(ctr.count, ctr.count.width() + 1),
      synth::constant_bus(h, ctr.count.width() + 1));
  const NetId phase_a = mod.inv(phase_b);
  // Output-phase neuron index: count - h (valid during phase B only).
  Bus out_index = synth::sub_signed(
      mod, ctr.count, synth::constant_bus(h, ctr.count.width()));
  int class_bits = 1;
  while ((1 << class_bits) < n) ++class_bits;
  out_index = synth::zext(out_index, class_bits);
  const NetId at_first_out = synth::equal_unsigned(
      mod, ctr.count, synth::constant_bus(h, ctr.count.width()));
  mod.end_group();
  out.class_bits = class_bits;

  // --- storage: layer-1 and layer-2 weight words, counter-selected ---------
  mod.begin_group(kGroupStorage);
  // Layer 1: word k (k < h) holds w1[k][j]; don't-care beyond (padded by
  // mux_storage).  Gated to zero during phase B (operand isolation).
  std::vector<Bus> w1_sel;
  for (int j = 0; j < m_in; ++j) {
    std::vector<std::int64_t> words;
    for (int k = 0; k < h; ++k) {
      words.push_back(model.w1[static_cast<std::size_t>(k)]
                              [static_cast<std::size_t>(j)]);
    }
    w1_sel.push_back(gate_bus(
        mod,
        synth::mux_storage(mod, words, width_for_words(words, bw1),
                           ctr.count),
        phase_a));
  }
  std::vector<std::int64_t> b1_words;
  for (int k = 0; k < h; ++k) b1_words.push_back(model.b1[static_cast<std::size_t>(k)]);
  const Bus b1_sel = gate_bus(
      mod, synth::mux_storage(mod, b1_words, acc1_bits, ctr.count), phase_a);

  // Layer 2: stored at indices h..h+n-1 of the same select space (first h
  // words are don't-care zeros), gated during phase A.
  std::vector<Bus> w2_sel;
  for (int i = 0; i < h; ++i) {
    std::vector<std::int64_t> words(static_cast<std::size_t>(h), 0);
    for (int k = 0; k < n; ++k) {
      words.push_back(model.w2[static_cast<std::size_t>(k)]
                              [static_cast<std::size_t>(i)]);
    }
    w2_sel.push_back(gate_bus(
        mod,
        synth::mux_storage(mod, words, width_for_words(words, bw2),
                           ctr.count),
        phase_b));
  }
  std::vector<std::int64_t> b2_words(static_cast<std::size_t>(h), 0);
  for (int k = 0; k < n; ++k) b2_words.push_back(model.b2[static_cast<std::size_t>(k)]);
  const Bus b2_sel = gate_bus(
      mod, synth::mux_storage(mod, b2_words, acc2_bits, ctr.count), phase_b);
  mod.end_group();

  // --- compute engine 1: hidden neuron `count` ------------------------------
  mod.begin_group(kGroupCompute);
  std::vector<Bus> terms1;
  for (int j = 0; j < m_in; ++j) {
    terms1.push_back(synth::mult_signed_unsigned(
        mod, w1_sel[static_cast<std::size_t>(j)],
        x[static_cast<std::size_t>(j)]));
  }
  terms1.push_back(b1_sel);
  Bus acc1 = synth::sext(synth::adder_tree_signed(mod, std::move(terms1)),
                         acc1_bits);
  // ReLU + wire shift + saturation (same construction as the parallel MLP).
  const NetId keep = mod.inv(acc1.msb());
  Bus relu;
  for (int b = 0; b < acc1.width(); ++b) {
    relu.bits.push_back(mod.and2(acc1[b], keep));
  }
  Bus shifted = model.hidden_shift > 0
                    ? synth::drop_lsbs(relu, model.hidden_shift)
                    : relu;
  Bus hval = synth::zext(shifted, bh);
  if (shifted.width() > bh) {
    hval = synth::slice(shifted, 0, bh);
    const Bus high = synth::slice(shifted, bh, shifted.width() - bh);
    const NetId sat = synth::reduce_or(mod, high);
    Bus clamped;
    for (int b = 0; b < bh; ++b) {
      clamped.bits.push_back(mod.or2(hval[b], sat));
    }
    hval = clamped;
  }

  // Hidden activation registers: neuron k captures when count == k.
  std::vector<Bus> hidden_regs;
  for (int k = 0; k < h; ++k) {
    const NetId mine = synth::equal_unsigned(
        mod, ctr.count, synth::constant_bus(k, ctr.count.width()));
    const NetId we = mod.and2(phase_a, mine);
    hidden_regs.push_back(synth::register_bus(mod, hval, we));
  }

  // --- compute engine 2: output neuron `count - h` --------------------------
  std::vector<Bus> terms2;
  for (int i = 0; i < h; ++i) {
    terms2.push_back(synth::mult_signed_unsigned(
        mod, w2_sel[static_cast<std::size_t>(i)],
        hidden_regs[static_cast<std::size_t>(i)]));
  }
  terms2.push_back(b2_sel);
  const Bus score = synth::sext(
      synth::adder_tree_signed(mod, std::move(terms2)), acc2_bits);
  mod.end_group();

  // --- voter: sequential argmax over the n output cycles --------------------
  mod.begin_group(kGroupVoter);
  std::vector<NetId> best_d = mod.new_nets(acc2_bits);
  Bus best_score;
  for (int i = 0; i < acc2_bits; ++i) {
    best_score.bits.push_back(mod.dff(best_d[static_cast<std::size_t>(i)]));
  }
  std::vector<NetId> id_d = mod.new_nets(class_bits);
  Bus best_id;
  for (int i = 0; i < class_bits; ++i) {
    best_id.bits.push_back(mod.dff(id_d[static_cast<std::size_t>(i)]));
  }
  const NetId greater = synth::greater_signed(mod, score, best_score);
  const NetId load =
      mod.or2(at_first_out, mod.and2(phase_b, greater));
  const Bus next_score = synth::mux2_bus(mod, best_score, score, load);
  const Bus next_id =
      synth::mux2_bus(mod, best_id, out_index, load, /*signed_align=*/false);
  for (int i = 0; i < acc2_bits; ++i) {
    mod.drive_net(best_d[static_cast<std::size_t>(i)], next_score[i]);
  }
  for (int i = 0; i < class_bits; ++i) {
    mod.drive_net(id_d[static_cast<std::size_t>(i)], next_id[i]);
  }
  mod.end_group();

  mod.add_output_port("class", best_id.bits);
  mod.add_output_port("done", {ctr.at_last});
  // Observability for verification/debug benches: the engines' outputs.
  mod.add_output_port("hval", hval.bits);
  mod.add_output_port("score", score.bits);
  out.opt = opt::optimize(mod, opt_options);
  return out;
}

}  // namespace pml::arch
